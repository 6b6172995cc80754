import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import wtopo
from conftest import random_connected_graph
from wtopo import (LANDMARK_TARGETED, PerturbSpec, build_cover, compute_persistence,
                   default_config, diameter, perturb, select_landmarks, vr_filtration,
                   witness_filtration)
from wtopo.cli import _image_config, _load_graph, build_parser, main

SIX_CYCLE = "".join(f"{i} {(i + 1) % 6}\n" for i in range(6))


@pytest.fixture
def cycle_path(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text(SIX_CYCLE)
    return str(path)


def run(argv):
    return main(argv)


def test_landmarks_json(cycle_path, tmp_path, capsys):
    out = tmp_path / "l.json"
    assert run(["landmarks", "-i", cycle_path, "--fraction", "0.34",
                "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj == {"landmarks": [0, 1], "fraction": 0.34}


def test_cover_json_schema(cycle_path, tmp_path):
    out = tmp_path / "c.json"
    assert run(["cover", "-i", cycle_path, "--fraction", "0.34",
                "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"landmarks", "cells", "epsilon_pairwise",
                        "cover_radius", "c_epsilon"}


def test_diagram_max_dim_zero(cycle_path, tmp_path):
    out = tmp_path / "d0.json"
    assert run(["diagram", "-i", cycle_path, "--complex", "witness",
                "--fraction", "0.34", "--max-dim", "0", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj == [{"dim": 0, "points": [], "essential": [0.0, 0.0]}]


def _edge_lines(g, shift=0):
    return "".join(f"{u + shift} {v + shift} {w!r}\n"
                   for (u, v), w in zip(g.edge_array.tolist(), g.weights.tolist()))


@pytest.mark.parametrize("kind", ["unit", "weighted", "disconnected"])
@pytest.mark.parametrize("algorithm", ["reduction", "union-find"])
def test_witness_diagram_matches_the_witness_filtration(tmp_path, capsys, kind, algorithm):
    # the oracle: the persistence of the public witness filtration over the
    # cover's landmark rows, every node a witness
    rng = np.random.default_rng(92)
    path = tmp_path / "g.edges"
    path.write_text({
        "unit": lambda: _edge_lines(random_connected_graph(rng, 16, extra=8)),
        "weighted": lambda: _edge_lines(random_connected_graph(rng, 16, extra=8,
                                                               weighted=True)),
        # node 0 alone, then two unit components
        "disconnected": lambda: _edge_lines(random_connected_graph(rng, 10, extra=4), 1)
        + _edge_lines(random_connected_graph(rng, 6, extra=2), 11)}[kind]())
    g = _load_graph(str(path))
    for fraction in (0.3, 0.05):                     # 0.05 selects one landmark
        rows = build_cover(g, select_landmarks(g, fraction)).rows
        for max_dim in range(3):
            for nu in range(2):
                assert run(["diagram", "-i", str(path), "--fraction", str(fraction),
                            "--max-dim", str(max_dim), "--nu", str(nu),
                            "--algorithm", algorithm]) == 0
                f = witness_filtration(rows.between_sources, rows.dists.T, max_dim,
                                       float("inf"), nu=nu)
                want = compute_persistence(f, algorithm).to_json_obj()
                assert capsys.readouterr().out == json.dumps(want, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("complex_", ["witness", "vr"])
def test_union_find_diagram_builds_no_triangles(tmp_path, capsys, monkeypatch, complex_):
    # union-find reads H0, which edges alone decide; the oracle is the staged
    # max_dim 2 filtration, computed before the triangle search is made to raise
    import wtopo.complexes as complexes

    def no_triangles(*args):
        raise AssertionError("a triangle search for a dimension-0 answer")

    rng = np.random.default_rng(93)
    path = tmp_path / "g.edges"
    for weighted in (False, True):
        path.write_text(_edge_lines(random_connected_graph(rng, 40, extra=40,
                                                           weighted=weighted)))
        g = _load_graph(str(path))
        rows = build_cover(g, select_landmarks(g, 0.3)).rows
        f = (witness_filtration(rows.between_sources, rows.dists.T, 2, float("inf"))
             if complex_ == "witness" else vr_filtration(rows.between_sources, 2, float("inf")))
        assert len(f.scales[2]) > 0
        want = compute_persistence(f, "union-find").to_json_obj()
        with monkeypatch.context() as m:
            m.setattr(complexes, "_triangles", no_triangles)
            assert run(["diagram", "-i", str(path), "--fraction", "0.3", "--max-dim", "2",
                        "--complex", complex_, "--algorithm", "union-find"]) == 0
        assert capsys.readouterr().out == json.dumps(want, separators=(",", ":")) + "\n"


def test_union_find_diagram_peak_memory(tmp_path):
    # 5k nodes, 250 landmarks: the max_dim 2 complex holds about a million
    # triangles (about 290 MB peak in total), the complex up to edges about
    # 100 MB; the ceiling sits between them
    path = tmp_path / "g.edges"
    path.write_text(_edge_lines(random_connected_graph(np.random.default_rng(94), 5000,
                                                       extra=5000)))
    script = ("import resource, sys; from wtopo.cli import main; "
              "code = main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024); "
              "sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(wtopo.__file__)), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, "diagram", "-i", str(path),
                           "--max-dim", "2", "--algorithm", "union-find",
                           "-o", str(tmp_path / "d.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 200


def test_diagram_then_loss(cycle_path, tmp_path, capsys):
    djson = tmp_path / "d.json"
    assert run(["diagram", "-i", cycle_path, "--complex", "witness",
                "--fraction", "0.34", "--max-dim", "1",
                "-o", str(djson)]) == 0
    assert djson.exists()
    obj = json.loads(djson.read_text())
    assert isinstance(obj, list) and all("dim" in e for e in obj)
    assert run(["loss", "-i", str(djson), "--p", "2", "--q", "0"]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) >= 0.0


def test_loss_prints_four_for_unit_example(tmp_path, capsys):
    djson = tmp_path / "d.json"
    djson.write_text(json.dumps([{"dim": 0, "points": [[0.0, 2.0]],
                                  "essential": []}]))
    assert run(["loss", "-i", str(djson), "--p", "2", "--q", "0"]) == 0
    assert float(capsys.readouterr().out.strip()) == 4.0


def test_distance_command(tmp_path, capsys):
    d1 = tmp_path / "d1.json"
    d2 = tmp_path / "d2.json"
    d1.write_text(json.dumps([{"dim": 0, "points": [[0.0, 4.0]], "essential": []}]))
    d2.write_text(json.dumps([{"dim": 0, "points": [[0.0, 5.0]], "essential": []}]))
    assert run(["distance", "-i", str(d1), str(d2), "--mode", "bottleneck"]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0


@pytest.mark.parametrize("p", ["inf", "nan", "0.5"])
def test_distance_rejects_a_bad_wasserstein_exponent(tmp_path, capsys, p):
    d = tmp_path / "d.json"
    d.write_text(json.dumps([{"dim": 0, "points": [[0.0, 4.0]], "essential": [0.0]}]))
    assert run(["distance", "-i", str(d), str(d), "--mode", "wasserstein", "--p", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wtopo: error:") and captured.err.count("\n") == 1
    assert "finite p >= 1" in captured.err


def test_image_command(tmp_path, capsys):
    djson = tmp_path / "d.json"
    djson.write_text(json.dumps([{"dim": 0, "points": [[0.0, 2.0]],
                                  "essential": []}]))
    out = tmp_path / "img.csv"
    assert run(["image", "-i", str(djson), "--grid", "2",
                "--birth-range", "0,2", "--pers-range", "0,2",
                "--sigma", "1.0", "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 2 and all(len(r) == 2 for r in rows)
    assert float(rows[0][0]) == pytest.approx(0.09119730927967717)


@pytest.mark.parametrize("command", [["loss"], ["distance", "{0}"],
                                     ["image", "--birth-range", "0,2", "--pers-range", "0,2"]])
@pytest.mark.parametrize("obj", [[{"points": [[0, 1]]}], {"dim": 0}, [[0, 1]],
                                 [{"dim": "0"}], [{"dim": 0, "points": {}}],
                                 [{"dim": 0, "essential": [[1, 2]]}],
                                 [{"dim": 0, "points": [1, 2]}],
                                 [{"dim": 0, "points": [[0, 1]]}, {"dim": 0, "points": [[0, 3]]}],
                                 [{"dim": -1, "points": [[0, 1]]}],
                                 [{"dim": 0, "points": [[0.5, float("inf")]]}],
                                 [{"dim": 0, "essential": [float("nan")]}],
                                 [{"dim": 0, "points": [[3, 1], [0, 2]]}],
                                 [{"dim": 0, "points": [[0, 10 ** 400]]}],
                                 [{"dim": 0, "essential": [10 ** 400]}]])
def test_malformed_diagram_json_is_a_one_line_error(tmp_path, capsys, command, obj):
    djson = tmp_path / "d.json"
    djson.write_text(json.dumps(obj))
    name, *rest = command
    argv = [name, "-i", str(djson), *(a.format(djson) for a in rest)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("wtopo: error:") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["0 99999999999999999999", "-99999999999999999999 1",
                                  "9223372036854775807 0"])
def test_a_node_id_beyond_int64_is_a_one_line_error(tmp_path, capsys, line):
    path = tmp_path / "big.edges"
    path.write_text(f"0 1\n{line}\n")
    assert run(["diagram", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wtopo: error: line 2: node ids must fit in 64 bits\n"


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000001,)"),
     "Unable to allocate 22.4 GiB for an array with shape (3000000001,)"),
    (MemoryError(), "MemoryError")])
def test_running_out_of_memory_is_a_one_line_error(cycle_path, capsys, monkeypatch, exc,
                                                  message):
    # an edge list whose largest id sizes the per-node arrays past the memory
    # ends in a MemoryError; a stub raises it, since a real allocation of that
    # size may succeed or end the process, depending on the kernel's overcommit
    def too_big(fp):
        raise exc

    monkeypatch.setattr("wtopo.cli.load_edge_list", too_big)
    assert run(["landmarks", "-i", cycle_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wtopo: error: {message}\n"


@pytest.mark.parametrize("flags", [["--cap-value", "nan"], ["--cap-value", "inf"],
                                   ["--birth-range", "0,inf"], ["--sigma", "inf"]])
def test_image_rejects_non_finite_config(tmp_path, capsys, flags):
    djson = tmp_path / "d.json"
    djson.write_text(json.dumps([{"dim": 0, "points": [[0.0, 2.0]], "essential": [0.0]}]))
    argv = ["image", "-i", str(djson), "--grid", "2", "--birth-range", "0,10",
            "--pers-range", "0,10", *flags]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wtopo: error:") and captured.err.count("\n") == 1
    assert "finite" in captured.err


@pytest.mark.parametrize("flag", ["--birth-range", "--pers-range"])
@pytest.mark.parametrize("text", ["1,2,3", "1", "a,b"])
def test_malformed_range_is_a_one_line_error(cycle_path, capsys, flag, text):
    assert run(["global-features", "-i", cycle_path, flag, text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wtopo: error: {flag} expects LO,HI, got {text!r}\n"


def test_image_requires_ranges(tmp_path, capsys):
    djson = tmp_path / "d.json"
    djson.write_text("[]")
    with pytest.raises(SystemExit) as exc:
        run(["image", "-i", str(djson)])
    assert exc.value.code == 2


def test_global_features_csv(cycle_path, tmp_path):
    out = tmp_path / "g.csv"
    assert run(["global-features", "-i", cycle_path, "--fraction", "0.34",
                "--grid", "4", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4 and all(len(r.split(",")) == 4 for r in rows)


@pytest.mark.parametrize("lone, other", [("--birth-range", "--pers-range"),
                                         ("--pers-range", "--birth-range")])
def test_lone_range_flag_keeps_other_default(cycle_path, tmp_path, lone, other):
    # the six-cycle's default ranges are [0, 3], its LCC diameter
    def features(*flags):
        out = tmp_path / "g.csv"
        assert run(["global-features", "-i", cycle_path, "--fraction", "0.34",
                    "--grid", "4", "-o", str(out), *flags]) == 0
        return out.read_text()

    alone = features(lone, "0,5")
    assert alone == features(lone, "0,5", other, "0,3")
    assert alone != features()


@pytest.mark.parametrize("ranges", [[], ["--birth-range", "0,1", "--pers-range", "0,1"]])
def test_essential_cap_ignores_explicit_ranges(tmp_path, ranges):
    # LCC diameter 0.5: the default cap is max(0.5, 1) + 1, with or without ranges
    path = tmp_path / "path.edges"
    path.write_text("0 1 0.25\n1 2 0.25\n")
    args = build_parser().parse_args(["global-features", "-i", str(path), *ranges])
    assert _image_config(args, _load_graph(str(path))).cap_value == 2.0


@pytest.mark.parametrize("policy", ["cap", "drop"])
@pytest.mark.parametrize("cap", [None, 7.5])
@pytest.mark.parametrize("pers", [None, (0.0, 3.0)])
@pytest.mark.parametrize("birth", [None, (1.0, 4.0)])
def test_image_config_computes_the_diameter_only_for_a_default(monkeypatch, birth, pers,
                                                               cap, policy):
    import wtopo.images as images

    rng = np.random.default_rng(95)
    for weighted in (False, True):
        g = random_connected_graph(rng, 30, extra=10, weighted=weighted)
        argv = ["global-features", "-i", "g.edges", "--grid", "3", "--sigma", "0.5",
                "--essential-policy", policy]
        # the oracle: the graph's default config, then each range or cap given
        # replaces its own field
        want = default_config(g, grid_resolution=3, sigma=0.5, essential_policy=policy)
        for flag, field, value in (("--birth-range", "birth_range", birth),
                                   ("--pers-range", "persistence_range", pers),
                                   ("--cap-value", "cap_value", cap)):
            if value is not None:
                argv += [flag, str(value).strip("()").replace(" ", "")]
                want = replace(want, **{field: value})
        calls = []
        monkeypatch.setattr(images, "diameter", lambda h: calls.append(h) or diameter(h))
        assert _image_config(build_parser().parse_args(argv), g) == want
        monkeypatch.undo()
        needs = birth is None or pers is None or cap is None and policy == "cap"
        assert len(calls) == needs


def test_local_features_csv_and_bin(cycle_path, tmp_path):
    csv_out = tmp_path / "f.csv"
    assert run(["local-features", "-i", cycle_path, "--fraction", "0.34",
                "--grid", "3", "-o", str(csv_out)]) == 0
    rows = csv_out.read_text().splitlines()
    assert len(rows) == 6 and all(len(r.split(",")) == 9 for r in rows)
    bin_out = tmp_path / "f.bin"
    assert run(["local-features", "-i", cycle_path, "--fraction", "0.34",
                "--grid", "3", "--format", "bin", "-o", str(bin_out)]) == 0
    raw = bin_out.read_bytes()
    assert int.from_bytes(raw[:8], "little") == 6
    assert int.from_bytes(raw[8:16], "little") == 9
    assert len(raw) == 16 + 6 * 9 * 8


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_local_features_failed_write_leaves_no_file(cycle_path, tmp_path,
                                                    capsys, fmt):
    target = tmp_path / "out"
    target.mkdir()                       # renaming onto a directory fails
    assert run(["local-features", "-i", cycle_path, "--fraction", "0.34",
                "--grid", "3", "--format", fmt, "-o", str(target)]) == 1
    assert "error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges", "out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o007], ids=oct)
def test_outputs_get_the_mode_a_plain_open_gives(cycle_path, tmp_path, umask):
    # a new file gets 0666 less the umask, a replaced file keeps its mode
    fresh, kept, plain = tmp_path / "c.json", tmp_path / "kept.json", tmp_path / "plain"
    saved = os.umask(umask)
    try:
        kept.write_text("")
        kept.chmod(0o604)
        for out in (fresh, kept):
            assert run(["cover", "-i", cycle_path, "--fraction", "0.34", "-o", str(out)]) == 0
        with open(plain, "w"):
            pass
    finally:
        os.umask(saved)
    mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (fresh, kept, plain)}
    assert mode == {"c.json": 0o666 & ~umask, "kept.json": 0o604, "plain": 0o666 & ~umask}


def test_perturb_prints_seed_and_is_deterministic(cycle_path, tmp_path, capsys):
    out1 = tmp_path / "p1.edges"
    out2 = tmp_path / "p2.edges"
    assert run(["perturb", "-i", cycle_path, "--budget", "2", "--seed", "9",
                "-o", str(out1)]) == 0
    assert "effective seed: 9" in capsys.readouterr().err
    assert run(["perturb", "-i", cycle_path, "--budget", "2", "--seed", "9",
                "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_perturb_landmark_targeted_flips_touch_a_landmark(tmp_path, capsys):
    g = random_connected_graph(np.random.default_rng(3), 30, extra=10)
    path = tmp_path / "g.edges"
    with open(path, "w") as fp:
        g.to_edge_list(fp)
    assert run(["perturb", "-i", str(path), "--budget", "6", "--seed", "4",
                "--mode", "landmark-targeted", "--fraction", "0.1"]) == 0
    landmarks = select_landmarks(g, 0.1).landmarks
    g2 = perturb(g, PerturbSpec(6, LANDMARK_TARGETED, 4), landmarks=landmarks)
    expected = io.StringIO()
    g2.to_edge_list(expected)
    assert capsys.readouterr().out == expected.getvalue()
    before, after = ({tuple(e) for e in h.edge_array.tolist()} for h in (g, g2))
    flipped = before ^ after
    assert len(flipped) == 6
    assert all(u in landmarks or v in landmarks for u, v in flipped)


def test_perturb_rate_conversion(cycle_path, tmp_path, capsys):
    out = tmp_path / "p.edges"
    assert run(["perturb", "-i", cycle_path, "--rate", "0.34",
                "-o", str(out)]) == 0      # round(0.34 * 6) = 2 flips
    from wtopo import adjacency_l1_distance, load_edge_list
    with open(out) as fp:
        g2 = load_edge_list(fp)
    with open(cycle_path) as fp:
        g1 = load_edge_list(fp)
    if g2.num_nodes != g1.num_nodes:        # a flip may drop the max node id
        pytest.skip("node count changed by edge removal at the boundary")
    assert adjacency_l1_distance(g1, g2) == 2


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_perturb_rejects_a_rate_without_a_finite_budget(cycle_path, capsys, rate):
    assert run(["perturb", "-i", cycle_path, "--rate", rate]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("wtopo: error: --rate must be >= 0 and give a finite budget, "
                            f"got {rate}\n")


def test_sweep_names_the_budgets_flag(cycle_path, capsys):
    assert run(["sweep", "-i", cycle_path, "--budgets", "1,x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wtopo: error: --budgets expects B0,B1,..., got '1,x'\n"


@pytest.mark.parametrize("command", [["diagram", "--complex", "witness"],
                                     ["diagram", "--complex", "vr"], ["global-features"]])
def test_max_scale_must_be_a_number_at_least_zero(cycle_path, capsys, command):
    for max_scale in ("-1", "nan"):
        assert run([*command, "-i", cycle_path, "--max-scale", max_scale]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("wtopo: error: max_scale must be a number >= 0, "
                                f"got {float(max_scale)}\n")
    for max_scale in ("0", "inf"):
        assert run([*command, "-i", cycle_path, "--max-scale", max_scale]) == 0
        assert capsys.readouterr().out


def test_sweep_csv_cardinality(cycle_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["sweep", "-i", cycle_path, "--budgets", "0,1,2", "--trials", "3",
                "--seed", "7", "--fraction", "0.34", "--grid", "3",
                "-o", str(out)]) == 0
    assert "effective seed: 7" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 9
    assert lines[0].startswith("budget,trial,l1_distance")


def test_sweep_byte_identical_reruns(cycle_path, tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    args = ["sweep", "-i", cycle_path, "--budgets", "0,2", "--trials", "2",
            "--seed", "3", "--fraction", "0.34", "--grid", "3"]
    assert run(args + ["-o", str(out1)]) == 0
    assert run(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv, message", [
    *[([command, "-i", "{g}", "--max-dim", "7"], "max_dim must be 0, 1 or 2")
      for command in ("global-features", "local-features")],
    (["global-features", "-i", "{g}", "--dimension", "-1"], "dimension must be >= 0, got -1"),
    (["loss", "-i", "{d}", "--dimension", "-1"], "dimension must be >= 0, got -1"),
    (["distance", "-i", "{d}", "{d}", "--dimension", "-1"], "dimension must be >= 0, got -1"),
    *[([command, "-i", "{g}", "--max-dim", "1", "--dimension", "3"],
       "dimension must be <= max_dim, got dimension 3 and max_dim 1")
      for command in ("global-features", "local-features")],
    # max_dim is checked before union-find truncates it
    *[(["diagram", "-i", "{g}", "--max-dim", "7", "--complex", complex_,
        "--algorithm", algorithm], "max_dim must be 0, 1 or 2")
      for complex_ in ("witness", "vr") for algorithm in ("reduction", "union-find")],
])
def test_invalid_parameters_exit_1(cycle_path, tmp_path, capsys, argv, message):
    djson = tmp_path / "d.json"
    djson.write_text(json.dumps([{"dim": 0, "points": [[0.0, 2.0]], "essential": []}]))
    assert run([a.format(g=cycle_path, d=djson) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wtopo: error: {message}\n"


def test_sweep_dimension_above_max_dim_exit_1(cycle_path, capsys):
    assert run(["sweep", "-i", cycle_path, "--budgets", "0", "--max-dim", "1",
                "--dimension", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("effective seed: 0\nwtopo: error: dimension must be <= max_dim, "
                            "got dimension 3 and max_dim 1\n")


def test_binary_output_needs_an_output_path(cycle_path, capsys):
    assert run(["local-features", "-i", cycle_path, "--fraction", "0.34",
                "--format", "bin"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wtopo: error: binary output needs -o/--output\n"


def test_usage_error_exit_code_2(cycle_path, capsys):
    for argv in (["diagram", "--bogus-flag"], ["not-a-command"],
                 ["sandwich", "-i", cycle_path]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # the witness sandwich is checked by the library alone (sandwich_check)
    assert "invalid choice: 'sandwich'" in capsys.readouterr().err


def test_runtime_error_exit_code_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.edges")
    assert main(["landmarks", "-i", missing]) == 1
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    assert main(["landmarks", "-i", str(bad)]) == 1


def test_every_subcommand_has_documented_defaults():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name, sp in sub.choices.items():
        text = sp.format_help()
        assert "default" in text or "required" in text, name


def _surface(parser):
    # every parse-relevant attribute of each subcommand's flags, help text aside
    sub = parser._subparsers._group_actions[0]
    out = {}
    for name, sp in sorted(sub.choices.items()):
        actions = sorted(
            [type(a).__name__, a.option_strings, a.dest,
             getattr(a.type, "__name__", repr(a.type)), repr(a.default), repr(a.const),
             a.choices, a.required, a.nargs, a.metavar]
            for a in sp._actions)
        groups = sorted([g.required, sorted(a.dest for a in g._group_actions)]
                        for g in sp._mutually_exclusive_groups)
        out[name] = [actions, groups]
    return json.dumps(out, sort_keys=True)


def test_cli_surface_is_pinned():
    # a flag's strings, dest, type, default, choices, arity and exclusions are
    # the CLI's contract; a digest change means a deliberate surface change
    digest = hashlib.sha256(_surface(build_parser()).encode()).hexdigest()
    assert digest == "28397f32dc2c4014375e7652660820ca8694242412f585fe648030d7343a6387"
