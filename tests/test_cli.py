import json
import os
import stat

import pytest

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
                                 [{"dim": 0, "points": [1, 2]}]])
def test_malformed_diagram_json_is_a_one_line_error(tmp_path, capsys, command, obj):
    djson = tmp_path / "d.json"
    djson.write_text(json.dumps(obj))
    name, *rest = command
    argv = [name, "-i", str(djson), *(a.format(djson) for a in rest)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("wtopo: error:") and err.count("\n") == 1


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


def test_sandwich_command(cycle_path, capsys):
    assert run(["sandwich", "-i", cycle_path, "--fraction", "0.34"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["sandwich", "-i", cycle_path, "--fraction", "0.34",
                "--alpha", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "not-applicable"


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["diagram", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


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
