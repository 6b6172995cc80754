"""wtopo command-line front end.

Exit codes: 0 success, 1 runtime/validation error, 2 usage error. Structured
objects are written as JSON, matrices and reports as CSV. Each subcommand
returns its output, text or bytes, and ``main`` alone writes it: to stdout,
or with -o atomically (temp file + rename); bytes need -o. Randomized
subcommands print the effective seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile

from . import __version__
from .complexes import _check_parameters, vr_filtration
from .encodings import (TopoLossConfig, global_diagram, global_encoding, local_encoding,
                        topo_loss)
from .graph import Graph, load_edge_list
from .images import CAP, DROP, PIConfig, _extent, persistence_image
from .landmarks import Cover, build_cover, select_landmarks
from .persistence import (REDUCTION, UNION_FIND, PersistenceDiagram,
                          compute_persistence, diagram_distance)
from .robustness import (LANDMARK_TARGETED, RANDOM, PerturbSpec, perturb,
                         stability_sweep)


def _atomic_write(path: str, data: str | bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".wtopo-", suffix=".tmp")
    try:
        # mkstemp makes the file 0600; give it the mode open(path, "w") would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, os.stat(path).st_mode & 0o777 if os.path.exists(path) else 0o666 & ~umask)
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fp:
            fp.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fp:
        return load_edge_list(fp)


def _load_diagram(path: str) -> PersistenceDiagram:
    with open(path, "r", encoding="utf-8") as fp:
        return PersistenceDiagram.from_json_obj(json.load(fp))


def _cover(args) -> Cover:
    g = _load_graph(args.input)
    return build_cover(g, select_landmarks(g, args.fraction))


def _range(args, key: str) -> tuple[float, float]:
    text = getattr(args, key)
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"{_FLAGS[key][0][0]} expects LO,HI, got {text!r}") from None
    return lo, hi


def _image_config(args, g: Graph | None) -> PIConfig:
    # each range or cap left unset takes the graph's default (argparse
    # requires both ranges where no graph is read), so an explicit range
    # never changes the default essential cap, and the LCC diameter is
    # computed only when a default is filled
    ranges = [_range(args, key) if getattr(args, key) else None
              for key in ("birth_range", "pers_range")]
    cap = args.cap_value
    fill_cap = g is not None and cap is None and args.essential_policy == CAP
    if None in ranges or fill_cap:
        extent = _extent(g)
        ranges = [r or (0.0, extent) for r in ranges]
        cap = extent + 1.0 if fill_cap else cap
    return PIConfig(args.grid, *ranges, sigma=args.sigma,
                    essential_policy=args.essential_policy, cap_value=cap)


def _encoding_kw(args) -> dict:
    return dict(max_dim=args.max_dim, dimension=args.dimension, nu=args.nu,
                max_scale=args.max_scale)


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _written(write, buffer=io.StringIO) -> str | bytes:
    # what a writer such as ``to_csv`` puts into a file object
    buf = buffer()
    write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its output, which only ``main`` writes
# ---------------------------------------------------------------------------

def _cmd_landmarks(args) -> str:
    ls = select_landmarks(_load_graph(args.input), args.fraction)
    return _json({"landmarks": list(ls.landmarks), "fraction": ls.fraction})


def _cmd_cover(args) -> str:
    return _cover(args).to_json() + "\n"


def _cmd_diagram(args) -> str:
    # union-find is the reduction stopped after dimension 0
    dimension = 0 if args.algorithm == UNION_FIND else args.max_dim
    top = _check_parameters(args.max_dim, args.max_scale, dimension=dimension)
    cover = _cover(args)
    if args.complex == "witness":
        diagram = global_diagram(cover, max_dim=args.max_dim, dimension=dimension,
                                 nu=args.nu, max_scale=args.max_scale)
    else:
        filt = vr_filtration(cover.rows.between_sources, top, args.max_scale)
        diagram = compute_persistence(filt, args.algorithm)
    return _json(diagram.to_json_obj())


def _cmd_image(args) -> str:
    img = persistence_image(_load_diagram(args.input), _image_config(args, None),
                            args.dimension)
    return _written(img.to_csv)


def _cmd_local_features(args) -> str | bytes:
    g = _load_graph(args.input)
    feats = local_encoding(g, args.fraction, _image_config(args, g), **_encoding_kw(args))
    if args.format == "bin":
        return _written(feats.to_binary, io.BytesIO)
    return _written(feats.to_csv)


def _cmd_global_features(args) -> str:
    g = _load_graph(args.input)
    img = global_encoding(g, args.fraction, _image_config(args, g), **_encoding_kw(args))
    return _written(img.to_csv)


def _cmd_loss(args) -> str:
    d = _load_diagram(args.input)
    return repr(topo_loss(d, TopoLossConfig(args.p, args.q), args.dimension)) + "\n"


def _cmd_distance(args) -> str:
    d1, d2 = (_load_diagram(path) for path in args.inputs)
    value = diagram_distance(d1, d2, mode=args.mode, p=args.p,
                             dimension=args.dimension, essential=args.essential)
    return repr(value) + "\n"


def _cmd_perturb(args) -> str:
    g = _load_graph(args.input)
    budget = args.budget
    if budget is None:
        flips = args.rate * g.num_edges
        if not (args.rate >= 0.0 and flips < float("inf")):     # NaN fails both
            raise ValueError(f"--rate must be >= 0 and give a finite budget, got {args.rate}")
        budget = int(round(flips))
    print(f"effective seed: {args.seed}", file=sys.stderr)
    landmarks = None
    if args.mode == LANDMARK_TARGETED:
        landmarks = select_landmarks(g, args.fraction).landmarks
    g2 = perturb(g, PerturbSpec(budget=budget, mode=args.mode, seed=args.seed),
                 landmarks=landmarks)
    return _written(g2.to_edge_list)


def _cmd_sweep(args) -> str:
    g = _load_graph(args.input)
    try:
        budgets = [int(b) for b in args.budgets.split(",")]
    except ValueError:
        raise ValueError(f"--budgets expects B0,B1,..., got {args.budgets!r}") from None
    print(f"effective seed: {args.seed}", file=sys.stderr)
    report = stability_sweep(
        g, budgets, args.trials, args.fraction, _image_config(args, g),
        TopoLossConfig(args.p, args.q), mode=args.mode, base_seed=args.seed,
        freeze_landmarks=args.freeze_landmarks, **_encoding_kw(args))
    return _written(report.to_csv)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _flag(*strings: str, **kw) -> tuple[tuple[str, ...], dict]:
    return strings, kw


# every flag that several subcommands take, defined once; a subcommand names
# the keys of those it takes, so a shared flag means the same in each
_FLAGS = {
    "input": _flag("-i", "--input", required=True,
                   help="edge-list file (image, loss: diagram JSON file)"),
    "output": _flag("-o", "--output", default=None, help="output path (default: stdout)"),
    "fraction": _flag("--fraction", type=float, default=0.05,
                      help="landmark fraction of N (default 0.05)"),
    "max_dim": _flag("--max-dim", type=int, default=1,
                     help="max simplex dimension, 0-2 (default 1)"),
    "max_scale": _flag("--max-scale", type=float, default=float("inf"),
                       help="scale cap for the filtration (default inf)"),
    "nu": _flag("--nu", type=int, default=0, help="witness relaxation order (default 0)"),
    "grid": _flag("--grid", type=int, default=10,
                  help="image resolution R (image is R x R, default 10)"),
    "sigma": _flag("--sigma", type=float, default=1.0,
                   help="Gaussian kernel bandwidth (default 1.0)"),
    "birth_range": _flag("--birth-range", default=None, metavar="LO,HI",
                         help="birth axis range (default: [0, LCC diameter]; "
                              "required by image)"),
    "pers_range": _flag("--pers-range", default=None, metavar="LO,HI",
                        help="persistence axis range (default: [0, LCC diameter]; "
                             "required by image)"),
    "essential_policy": _flag("--essential-policy", choices=[DROP, CAP], default=CAP,
                              help="how essential points enter the image (default cap)"),
    "cap_value": _flag("--cap-value", type=float, default=None,
                       help="death value for capped essential points "
                            "(default: max(LCC diameter, 1) + 1)"),
    "dimension": _flag("--dimension", type=int, default=0,
                       help="homology dimension, >= 0 (default 0)"),
    "seed": _flag("--seed", type=int, default=0,
                  help="RNG seed, sweep trial t uses seed + t "
                       "(default 0; printed on stderr)"),
    "flip_mode": _flag("--mode", choices=[RANDOM, LANDMARK_TARGETED], default=RANDOM,
                       help="candidate pairs to flip: any, or touching a landmark "
                            "(default random)"),
    "p": _flag("--p", type=float, default=2.0, help="loss persistence exponent (default 2)"),
    "q": _flag("--q", type=float, default=0.0, help="loss midlife exponent (default 0)"),
}
_COMPLEX = ("fraction", "max_dim", "max_scale", "nu")
_IMAGE = ("grid", "sigma", "birth_range", "pers_range", "essential_policy", "cap_value",
          "dimension")


def _add(p: argparse.ArgumentParser, *keys: str, **override) -> None:
    for key in keys:
        strings, kw = _FLAGS[key]
        p.add_argument(*strings, **{**kw, **override})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtopo",
        description="Witness-complex persistent-homology features on graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *keys) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        _add(p, *keys, "output")
        return p

    command("landmarks", _cmd_landmarks, "select landmarks by degree", "input", "fraction")
    command("cover", _cmd_cover, "build the landmark Voronoi cover", "input", "fraction")

    p = command("diagram", _cmd_diagram, "persistence diagram of a filtration",
                "input", *_COMPLEX)
    p.add_argument("--complex", choices=["witness", "vr"], default="witness",
                   help="filtration kind (default witness)")
    p.add_argument("--algorithm", choices=[UNION_FIND, REDUCTION], default=REDUCTION,
                   help="persistence algorithm, union-find: dimension 0 only "
                        "(default reduction: every dimension)")

    p = command("image", _cmd_image, "persistence image of a diagram", "input",
                "grid", "sigma", "essential_policy", "cap_value", "dimension")
    _add(p, "birth_range", "pers_range", required=True)

    p = command("local-features", _cmd_local_features, "per-node local feature matrix",
                "input", *_COMPLEX, *_IMAGE)
    p.add_argument("--format", choices=["csv", "bin"], default="csv",
                   help="output format, bin needs -o (default csv)")

    command("global-features", _cmd_global_features, "whole-graph persistence image",
            "input", *_COMPLEX, *_IMAGE)
    command("loss", _cmd_loss, "topological loss of a diagram", "input", "p", "q",
            "dimension")

    p = command("distance", _cmd_distance, "distance between two diagrams", "dimension")
    p.add_argument("-i", "--inputs", nargs=2, required=True,
                   metavar=("D1", "D2"), help="two diagram JSON files")
    p.add_argument("--mode", choices=["bottleneck", "wasserstein"],
                   default="bottleneck", help="distance kind (default bottleneck)")
    p.add_argument("--p", type=float, default=1.0,
                   help="Wasserstein exponent, >= 1 (default 1)")
    p.add_argument("--essential", choices=["match", "drop"], default="match",
                   help="essential-point policy (default match)")

    p = command("perturb", _cmd_perturb, "flip random undirected pairs",
                "input", "flip_mode", "fraction", "seed")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--budget", type=int, default=None,
                     help="number of undirected pair flips")
    grp.add_argument("--rate", type=float, default=None,
                     help="flip budget as a fraction of the edge count")

    p = command("sweep", _cmd_sweep, "stability sweep over flip budgets",
                "input", "seed", "flip_mode", *_COMPLEX, *_IMAGE, "p", "q")
    p.add_argument("--budgets", required=True, metavar="B0,B1,...",
                   help="comma-separated ascending flip budgets")
    p.add_argument("--trials", type=int, default=1, help="trials per budget (default 1)")
    p.add_argument("--freeze-landmarks", action="store_true",
                   help="reuse the clean graph's landmarks on perturbed graphs")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        if args.output is not None:
            _atomic_write(args.output, out)
        elif isinstance(out, bytes):
            raise ValueError("binary output needs -o/--output")
        else:
            sys.stdout.write(out)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"wtopo: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
