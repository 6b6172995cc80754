"""wtopo command-line front end.

Exit codes: 0 success, 1 runtime/validation error, 2 usage error. Structured
objects are written as JSON, matrices and reports as CSV; every output file is
written atomically (temp file + rename). Randomized subcommands print the
effective seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

from . import __version__
from .complexes import sandwich_check, vr_filtration, witness_filtration
from .encodings import (TopoLossConfig, global_encoding, local_encoding,
                        topo_loss)
from .graph import Graph, load_edge_list
from .images import CAP, DROP, PIConfig, default_config, persistence_image
from .landmarks import build_cover, select_landmarks
from .persistence import (REDUCTION, UNION_FIND, PersistenceDiagram,
                          compute_persistence, diagram_distance)
from .robustness import PerturbSpec, perturb, stability_sweep


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


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fp:
        return load_edge_list(fp)


def _load_diagram(path: str) -> PersistenceDiagram:
    with open(path, "r", encoding="utf-8") as fp:
        return PersistenceDiagram.from_json_obj(json.load(fp))


def _parse_range(flag: str, text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects LO,HI, got {text!r}") from None
    return lo, hi


def _image_config(args, g: Graph | None) -> PIConfig:
    if g is None:       # argparse requires both ranges where no graph is read
        return PIConfig(grid_resolution=args.grid,
                        birth_range=_parse_range("--birth-range", args.birth_range),
                        persistence_range=_parse_range("--pers-range", args.pers_range),
                        sigma=args.sigma,
                        essential_policy=args.essential_policy,
                        cap_value=args.cap_value)
    # with a graph, each range or cap given replaces only its own default, so
    # giving explicit ranges never changes the default essential cap
    cfg = default_config(g, grid_resolution=args.grid, sigma=args.sigma,
                         essential_policy=args.essential_policy)
    if args.birth_range:
        cfg = replace(cfg, birth_range=_parse_range("--birth-range", args.birth_range))
    if args.pers_range:
        cfg = replace(cfg, persistence_range=_parse_range("--pers-range", args.pers_range))
    if args.cap_value is not None:
        cfg = replace(cfg, cap_value=args.cap_value)
    return cfg


def _diagram_json(d: PersistenceDiagram) -> str:
    return json.dumps(d.to_json_obj(), separators=(",", ":")) + "\n"


def _written(write) -> str:
    # the text a writer such as ``to_csv`` puts into a file object
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_landmarks(args) -> int:
    g = _load_graph(args.input)
    ls = select_landmarks(g, args.fraction)
    _emit(args.output, json.dumps({"landmarks": list(ls.landmarks),
                                   "fraction": ls.fraction},
                                  separators=(",", ":")) + "\n")
    return 0


def _cmd_cover(args) -> int:
    g = _load_graph(args.input)
    cover = build_cover(g, select_landmarks(g, args.fraction))
    _emit(args.output, cover.to_json() + "\n")
    return 0


def _cmd_diagram(args) -> int:
    g = _load_graph(args.input)
    rows = build_cover(g, select_landmarks(g, args.fraction)).rows
    if args.complex == "witness":
        filt = witness_filtration(rows.between_sources, rows.dists.T,
                                  args.max_dim, args.max_scale, nu=args.nu)
    else:
        filt = vr_filtration(rows.between_sources, args.max_dim, args.max_scale)
    diagram = compute_persistence(filt, args.algorithm)
    _emit(args.output, _diagram_json(diagram))
    return 0


def _cmd_image(args) -> int:
    d = _load_diagram(args.input)
    cfg = _image_config(args, None)
    img = persistence_image(d, cfg, args.dimension)
    _emit(args.output, _written(img.to_csv))
    return 0


def _cmd_local_features(args) -> int:
    g = _load_graph(args.input)
    cfg = _image_config(args, g)
    feats = local_encoding(g, args.fraction, cfg, max_dim=args.max_dim,
                           dimension=args.dimension, nu=args.nu,
                           max_scale=args.max_scale)
    if args.format == "bin":
        if args.output is None:
            raise ValueError("binary output needs -o/--output")
        buf = io.BytesIO()
        feats.to_binary(buf)
        _atomic_write(args.output, buf.getvalue())
    else:
        _emit(args.output, _written(feats.to_csv))
    return 0


def _cmd_global_features(args) -> int:
    g = _load_graph(args.input)
    cfg = _image_config(args, g)
    img = global_encoding(g, args.fraction, cfg, max_dim=args.max_dim,
                          dimension=args.dimension, nu=args.nu,
                          max_scale=args.max_scale)
    _emit(args.output, _written(img.to_csv))
    return 0


def _cmd_loss(args) -> int:
    d = _load_diagram(args.input)
    value = topo_loss(d, TopoLossConfig(args.p, args.q), args.dimension)
    _emit(args.output, repr(value) + "\n")
    return 0


def _cmd_distance(args) -> int:
    d1 = _load_diagram(args.inputs[0])
    d2 = _load_diagram(args.inputs[1])
    value = diagram_distance(d1, d2, mode=args.mode, p=args.p,
                             dimension=args.dimension, essential=args.essential)
    _emit(args.output, repr(value) + "\n")
    return 0


def _cmd_perturb(args) -> int:
    g = _load_graph(args.input)
    budget = args.budget
    if budget is None:
        flips = args.rate * g.num_edges
        if not (args.rate >= 0.0 and flips < float("inf")):     # NaN fails both
            raise ValueError(f"--rate must be >= 0 and give a finite budget, got {args.rate}")
        budget = int(round(flips))
    print(f"effective seed: {args.seed}", file=sys.stderr)
    landmarks = None
    if args.mode == "landmark-targeted":
        landmarks = select_landmarks(g, args.fraction).landmarks
    g2 = perturb(g, PerturbSpec(budget=budget, mode=args.mode, seed=args.seed),
                 landmarks=landmarks)
    _emit(args.output, _written(g2.to_edge_list))
    return 0


def _cmd_sweep(args) -> int:
    g = _load_graph(args.input)
    try:
        budgets = [int(b) for b in args.budgets.split(",")]
    except ValueError:
        raise ValueError(f"--budgets expects B0,B1,..., got {args.budgets!r}") from None
    print(f"effective seed: {args.seed}", file=sys.stderr)
    cfg = _image_config(args, g)
    report = stability_sweep(
        g, budgets, args.trials, args.fraction, cfg,
        TopoLossConfig(args.p, args.q), mode=args.mode, base_seed=args.seed,
        freeze_landmarks=args.freeze_landmarks, max_dim=args.max_dim,
        dimension=args.dimension, nu=args.nu, max_scale=args.max_scale)
    _emit(args.output, _written(report.to_csv))
    return 0


def _cmd_sandwich(args) -> int:
    g = _load_graph(args.input)
    cover = build_cover(g, select_landmarks(g, args.fraction))
    alpha = args.alpha if args.alpha is not None else 2.0 * cover.cover_radius + 1.0
    result = sandwich_check(cover.rows.between_sources, cover.rows.dists.T, alpha,
                            cover.cover_radius, args.max_dim)
    text = "not-applicable" if result is None else ("true" if result else "false")
    _emit(args.output, text + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_graph_input(p):
    p.add_argument("-i", "--input", required=True, help="edge-list file")


def _add_output(p):
    p.add_argument("-o", "--output", default=None,
                   help="output path (default: stdout)")


def _add_image_flags(p, require_ranges: bool = False):
    p.add_argument("--grid", type=int, default=10,
                   help="image resolution R (image is R x R, default 10)")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="Gaussian kernel bandwidth (default 1.0)")
    range_default = "required" if require_ranges else "default: [0, LCC diameter]"
    p.add_argument("--birth-range", default=None, metavar="LO,HI",
                   required=require_ranges,
                   help=f"birth axis range ({range_default})")
    p.add_argument("--pers-range", default=None, metavar="LO,HI",
                   required=require_ranges,
                   help=f"persistence axis range ({range_default})")
    p.add_argument("--essential-policy", choices=[DROP, CAP], default=CAP,
                   help="how essential points enter the image (default cap)")
    p.add_argument("--cap-value", type=float, default=None,
                   help="death value for capped essential points "
                        "(default: max(LCC diameter, 1) + 1)")
    p.add_argument("--dimension", type=int, default=0,
                   help="homology dimension to vectorize (default 0)")


def _add_complex_flags(p):
    p.add_argument("--fraction", type=float, default=0.05,
                   help="landmark fraction of N (default 0.05)")
    p.add_argument("--max-dim", type=int, default=1,
                   help="max simplex dimension, 0-2 (default 1)")
    p.add_argument("--max-scale", type=float, default=float("inf"),
                   help="scale cap for the filtration (default inf)")
    p.add_argument("--nu", type=int, default=0,
                   help="witness relaxation order (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtopo",
        description="Witness-complex persistent-homology features on graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("landmarks", help="select landmarks by degree")
    _add_graph_input(p)
    p.add_argument("--fraction", type=float, default=0.05,
                   help="landmark fraction of N (default 0.05)")
    _add_output(p)
    p.set_defaults(func=_cmd_landmarks)

    p = sub.add_parser("cover", help="build the landmark Voronoi cover")
    _add_graph_input(p)
    p.add_argument("--fraction", type=float, default=0.05,
                   help="landmark fraction of N (default 0.05)")
    _add_output(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("diagram", help="persistence diagram of a filtration")
    _add_graph_input(p)
    p.add_argument("--complex", choices=["witness", "vr"], default="witness",
                   help="filtration kind (default witness)")
    _add_complex_flags(p)
    p.add_argument("--algorithm", choices=[UNION_FIND, REDUCTION],
                   default=REDUCTION,
                   help="persistence algorithm, union-find: dimension 0 only "
                        "(default reduction: every dimension)")
    _add_output(p)
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("image", help="persistence image of a diagram")
    p.add_argument("-i", "--input", required=True, help="diagram JSON file")
    _add_image_flags(p, require_ranges=True)
    _add_output(p)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("local-features", help="per-node local feature matrix")
    _add_graph_input(p)
    _add_complex_flags(p)
    _add_image_flags(p)
    p.add_argument("--format", choices=["csv", "bin"], default="csv",
                   help="output format (default csv)")
    _add_output(p)
    p.set_defaults(func=_cmd_local_features)

    p = sub.add_parser("global-features", help="whole-graph persistence image")
    _add_graph_input(p)
    _add_complex_flags(p)
    _add_image_flags(p)
    _add_output(p)
    p.set_defaults(func=_cmd_global_features)

    p = sub.add_parser("loss", help="topological loss of a diagram")
    p.add_argument("-i", "--input", required=True, help="diagram JSON file")
    p.add_argument("--p", type=float, default=2.0,
                   help="persistence exponent (default 2)")
    p.add_argument("--q", type=float, default=0.0,
                   help="midlife exponent (default 0)")
    p.add_argument("--dimension", type=int, default=0,
                   help="homology dimension (default 0)")
    _add_output(p)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("distance", help="distance between two diagrams")
    p.add_argument("-i", "--inputs", nargs=2, required=True,
                   metavar=("D1", "D2"), help="two diagram JSON files")
    p.add_argument("--mode", choices=["bottleneck", "wasserstein"],
                   default="bottleneck", help="distance kind (default bottleneck)")
    p.add_argument("--p", type=float, default=1.0,
                   help="Wasserstein exponent, >= 1 (default 1)")
    p.add_argument("--dimension", type=int, default=0,
                   help="homology dimension (default 0)")
    p.add_argument("--essential", choices=["match", "drop"], default="match",
                   help="essential-point policy (default match)")
    _add_output(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("perturb", help="flip random undirected pairs")
    _add_graph_input(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--budget", type=int, default=None,
                     help="number of undirected pair flips")
    grp.add_argument("--rate", type=float, default=None,
                     help="flip budget as a fraction of the edge count")
    p.add_argument("--mode", choices=["random", "landmark-targeted"],
                   default="random", help="candidate pair pool (default random)")
    p.add_argument("--fraction", type=float, default=0.05,
                   help="landmark fraction for landmark-targeted mode "
                        "(default 0.05)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (default 0; printed on stderr)")
    _add_output(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("sweep", help="stability sweep over flip budgets")
    _add_graph_input(p)
    p.add_argument("--budgets", required=True, metavar="B0,B1,...",
                   help="comma-separated ascending flip budgets")
    p.add_argument("--trials", type=int, default=1,
                   help="trials per budget (default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed (default 0; printed on stderr)")
    p.add_argument("--mode", choices=["random", "landmark-targeted"],
                   default="random", help="perturbation mode (default random)")
    p.add_argument("--freeze-landmarks", action="store_true",
                   help="reuse the clean graph's landmarks on perturbed graphs")
    _add_complex_flags(p)
    _add_image_flags(p)
    p.add_argument("--p", type=float, default=2.0,
                   help="loss persistence exponent (default 2)")
    p.add_argument("--q", type=float, default=0.0,
                   help="loss midlife exponent (default 0)")
    _add_output(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sandwich",
                       help="check the witness complex sits between VR at "
                            "alpha/3 and VR at 3*alpha")
    _add_graph_input(p)
    p.add_argument("--fraction", type=float, default=0.05,
                   help="landmark fraction of N (default 0.05)")
    p.add_argument("--alpha", type=float, default=None,
                   help="scale to test (default: 2*cover_radius + 1)")
    p.add_argument("--max-dim", type=int, default=1,
                   help="max simplex dimension, 0-2 (default 1)")
    _add_output(p)
    p.set_defaults(func=_cmd_sandwich)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"wtopo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
