"""Golden SHA-256 digests of CLI outputs on seeded graphs.

Each case runs one subcommand on a seeded unit, weighted or disconnected
graph from the conftest generators and compares the digest of its output,
written to a file with -o and (text outputs) to stdout, with the value
pinned below. Refactors must keep every output byte-identical; a digest
changes only with a deliberate change of behaviour.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_connected_graph, random_graph
from wtopo.cli import main


def _graph(kind):
    rng = np.random.default_rng(97)
    if kind == "unit":
        return random_connected_graph(rng, 40, extra=25)
    if kind == "weighted":
        return random_connected_graph(rng, 40, extra=25, weighted=True)
    return random_graph(rng, 45, p=0.045)      # several components, isolated nodes


SWEEP = ["sweep", "--budgets", "0,2,6", "--trials", "2", "--seed", "5",
         "--fraction", "0.15", "--grid", "3"]

COMMANDS = {
    "cover": ["cover", "--fraction", "0.15"],
    "diagram-witness": ["diagram", "--complex", "witness", "--fraction", "0.15",
                        "--max-dim", "2"],
    "diagram-vr": ["diagram", "--complex", "vr", "--fraction", "0.15",
                   "--max-dim", "2"],
    "local-csv": ["local-features", "--fraction", "0.15", "--grid", "4"],
    "local-bin": ["local-features", "--fraction", "0.15", "--grid", "4",
                  "--format", "bin"],
    "global": ["global-features", "--fraction", "0.15", "--grid", "4"],
    "sweep-random": SWEEP,
    "sweep-targeted": SWEEP + ["--mode", "landmark-targeted",
                               "--freeze-landmarks"],
}

GOLDEN = {
    ("unit", "cover"): "259f87bb0f36563ed9c2e7835bde1caadad06f30a057f90df88a5c62b02eb100",
    ("unit", "diagram-witness"): "d273665d5d48682ca6dc7dcf2718f49745e57f855c26189976f6547809320a64",
    ("unit", "diagram-vr"): "8e6558dd3be06eaa15e917435606ded2dc7d7e2404327265015f7e572e2f388e",
    ("unit", "local-csv"): "8ae15783f9ec8fc1b3ab2730e5cd92e647bd18ea41ea705915194be8a68faaac",
    ("unit", "local-bin"): "ffa7c5c4ef0f73ea3a3b3ba2d6426dd32a42ac63166ce8ab7a1c7025be0c2a48",
    ("unit", "global"): "82c9054387f59e6597b20c4b5ecdf1ad7d2975464c82084751f9bb2d17c81195",
    ("unit", "sweep-random"): "287452c8dade20323b5ce32130ec914e7c125558b85442eb32e27bbc7eeb4155",
    ("unit", "sweep-targeted"): "acbd1df2cef748996438b177180ba64f4fc6c0e55be2e6ec14248e1fb4f4bcdf",
    ("weighted", "cover"): "23d746936efb185f5f3a78f12cab8f5261b37c8acb0496f3d35dbb400f9cddfe",
    ("weighted", "diagram-witness"): "3af08dcc56535eb83ca954c3a633d8dd143c858d4c06beeb006da8bf794b2eab",
    ("weighted", "diagram-vr"): "3021f0bb3007a470f92ad72134c70dfe11e2660e34c0ca4da006ca2c6b69161e",
    ("weighted", "local-csv"): "ecc8c4294629603e21d2e677c747c119e971da45080e6557c502212c3733d4da",
    ("weighted", "local-bin"): "cc42afd6bb20069682643eb65500107be02441a5282f107e5e5fd377b5688050",
    ("weighted", "global"): "db59911331d794a03356c5a874c895fd2129bb302f1511e9ab8e3d4632aa02d2",
    ("weighted", "sweep-random"): "c2481102eee6e6df8f565466486b20b93e962a5f9104f51393a023eb1bce965d",
    ("weighted", "sweep-targeted"): "32bad02c50b2d862d3268193c8a4e4aa89ad6d1b221b85f1bd2513c6b9786caa",
    ("disconnected", "cover"): "109b8f183e4e5757a2ef47a0c62a405c630e692c8ba936e73cf319cad45bfb82",
    ("disconnected", "diagram-witness"): "15c46100b913de6df24129c32ce90d2d394d357c6a61369396e2c7c2b23ca542",
    ("disconnected", "diagram-vr"): "4f1e693e50214f76e17b05138714acd861ac2f2489ec5c16759f2dce96db03ba",
    ("disconnected", "local-csv"): "329a9287167257c2875f873fd6c30f84bfcdffe22da7c9b260b408fbee52576b",
    ("disconnected", "local-bin"): "ed6270fbb88c7da18f8faf5f007a147ab4e3073087fc2497c06a91bb5bb5334d",
    ("disconnected", "global"): "5fc1a09f9b94c69aa572e44d3c94d14825cf710ee08e872533bead5cf37c1b8b",
    ("disconnected", "sweep-random"): "6b7a96892490f7ad540726f10952c11b16ad46a3d82e4a62f368f9896e2eed41",
    ("disconnected", "sweep-targeted"): "50be9fc70ff9305fc0dd363dea05d7f0e8602ebc21c6a48e3a7de4e93f42e7f4",
}


def _run(tmp_path, kind, command, *output):
    edges = tmp_path / "g.edges"
    with open(edges, "w") as fp:
        _graph(kind).to_edge_list(fp)
    argv = COMMANDS[command]
    assert main(argv[:1] + ["-i", str(edges)] + argv[1:] + list(output)) == 0


@pytest.mark.parametrize("kind", ["unit", "weighted", "disconnected"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_output_digest(tmp_path, kind, command):
    out = tmp_path / "out"
    _run(tmp_path, kind, command, "-o", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[kind, command]


# stdout gets its own call of the writer; binary output needs -o
@pytest.mark.parametrize("kind", ["unit", "weighted", "disconnected"])
@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "local-bin"])
def test_cli_stdout_digest(tmp_path, capsys, kind, command):
    _run(tmp_path, kind, command)
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN[kind, command]
