"""Golden outputs: sha256 digests of every CLI file on one small generated
instance, so a refactor that changes any output byte fails here.

The rules are shaped like the benchmark's (self-form X and Y, a constant
rule) plus one general-form rule (`x.A == y.B` in X and in Y).  To record
new digests after an intended output change, print `outputs(tmp_path)`.
"""

import hashlib

from tgfd.cli import main

from util import GOLDEN_RULES


GOLDEN = {
    "gen.stdout": "d3d5525bc1098bf32047a7eb315a477697c7bac6c523a77172ffa299ac2137dc",
    "gen.snapshot": "2977def2f4c833e652eb51333ee6702bc67e8e8b716ccb6bb3a0ba1c28006b80",
    "gen.changes": "f719e652e1da6ee6efa3390aa72539949440a527546c2ef883016af0a8471066",
    "inject.stdout": "ceb81282cf53a10bf699d2a76951092bab25eca9bc2f8ee8af2ebb225d9b1b2e",
    "mut.snapshot": "bf7ae9eea107840632baaf975a670f80bf3e71d42994a61fa14afabb5eb5821f",
    "mut.changes": "f2a41b6a617ee91a889a5ea0520092a768b17cbba66e8f5ff64177ce795b2c70",
    "mut.ledger": "597b4921785772fdb4c7f61a7eed5668e3824f2edb29273d52363a7824a3cd13",
    "eval.stdout": "c39a6678900b6661a6cd562bfbbfa12ffd3c5cc895dd7264942af8f9ce6921bc",
    "detect.text": "28e112277e84a5ca202aa34b185727d83294f13dad5c5b372fa8ced850f9e3c5",
    "detect.jsonlike": "c85a5adad82b7ce1277fb4cb2a0aaca9c2ae1d534630d6b274f1b68341386e79",
    "parallel.text": "6cc215c49556acdf3c5a74405e0cf1c8bbe6446ab2f75e25522818fbd9e4866b",
    "parallel.jsonlike": "c6d1232a1aad306bc8771e26140d992c3d7a27d549d594730ce22696e00cd1b9",
    "plan.stdout": "f8c6e584c5a383c8b104a280dce20b667f084aad03345a8fa16f4e6fee92758d",
    # the same reports written to --out files
    "detect.out.text": "28e112277e84a5ca202aa34b185727d83294f13dad5c5b372fa8ced850f9e3c5",
    "detect.out.jsonlike": "c85a5adad82b7ce1277fb4cb2a0aaca9c2ae1d534630d6b274f1b68341386e79",
    "parallel.out.text": "6cc215c49556acdf3c5a74405e0cf1c8bbe6446ab2f75e25522818fbd9e4866b",
    "parallel.out.jsonlike": "c6d1232a1aad306bc8771e26140d992c3d7a27d549d594730ce22696e00cd1b9",
}


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def outputs(tmp_path, capsys):
    """{file name: sha256} of gen, inject --negative, eval, detect,
    detect-parallel and plan outputs, plus the commands' stdout; each
    report in both formats, on stdout and in an --out file."""
    rules = tmp_path / "rules.tgfd"
    rules.write_text(GOLDEN_RULES, encoding="utf-8")
    out = {}
    out["gen.stdout"] = _cli(
        capsys, "gen", "--vertices", "120", "--edges", "360", "--T", "8", "--chg", "0.1",
        "--seed", "5", "--out-prefix", str(tmp_path / "gen"),
    )
    out["inject.stdout"] = _cli(
        capsys, "inject", "--graph", str(tmp_path / "gen.snapshot"),
        "--changes", str(tmp_path / "gen.changes"), "--tgfds", str(rules),
        "--err", "0.2", "--negative", "--seed", "2", "--out-prefix", str(tmp_path / "mut"),
    )
    graph = ["--graph", str(tmp_path / "mut.snapshot"), "--changes", str(tmp_path / "mut.changes"),
             "--tgfds", str(rules)]
    out["eval.stdout"] = _cli(capsys, "eval", *graph, "--ledger", str(tmp_path / "mut.ledger"))
    out["detect.text"] = _cli(capsys, "detect", *graph)
    out["detect.jsonlike"] = _cli(capsys, "detect", *graph, "--format", "jsonlike")
    parallel = ["detect-parallel", *graph, "--workers", "3", "--tl", "5", "--tu", "60", "--seed", "3"]
    out["parallel.text"] = _cli(capsys, *parallel)
    out["parallel.jsonlike"] = _cli(capsys, *parallel, "--format", "jsonlike")
    out["plan.stdout"] = _cli(capsys, "plan", *parallel[1:])
    for command, name in ((["detect", *graph], "detect"), (parallel, "parallel")):
        for fmt in ("text", "jsonlike"):
            assert _cli(capsys, *command, "--format", fmt, "--out", str(tmp_path / f"{name}.out.{fmt}")) == ""
    for name in ("gen.snapshot", "gen.changes", "mut.snapshot", "mut.changes", "mut.ledger",
                 "detect.out.text", "detect.out.jsonlike", "parallel.out.text", "parallel.out.jsonlike"):
        out[name] = (tmp_path / name).read_text(encoding="utf-8")
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in out.items()}


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    assert outputs(tmp_path, capsys) == GOLDEN
