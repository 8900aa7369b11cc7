"""The command-line front end's JSON output against the shipped schemas."""

import json
from pathlib import Path

import jsonschema
import pytest

from rdes import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
BUFFER_INV = "outps(tt)<=bf++inps(tt)"


def _schema(name):
    path = ROOT / "src" / "rdes" / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def _run(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["refine", "buffer_body.rp", "buffer_body.rp"], 0),
        (["refine", "extchoice.rp", "a_stop.rp"], 1),
        (["refine", "a_stop.rp", "extchoice.rp"], 1),
        (["refine", "buffer.rp", "--invariant", BUFFER_INV,
          "--peri", "outps(tt)<=inps(tt)"], 0),
        (["refine", "buffer.rp", "--invariant", BUFFER_INV,
          "--peri", "inps(tt)<=outps(tt)"], 1),
        (["dlf", "buffer.rp"], 0),
        (["dlf", "a_stop.rp"], 1),
        (["dlf", "while_chaos.rp"], 1),
        (["inv-check", "buffer.rp", "--invariant", BUFFER_INV], 0),
        (["inv-check", "buffer.rp", "--invariant", "inps(tt)<=outps(tt)"], 1),
        (["inv-check", "a_stop.rp", "--invariant", "true"], 2),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_verdict_json_matches_schema(capsys, argv, code):
    argv = [str(CORPUS / a) if a.endswith(".rp") else a for a in argv]
    got, verdict = _run(capsys, *argv, "--trace-bound", "3")
    assert got == code
    jsonschema.validate(verdict, _schema("verdict"))
    assert verdict["bounds"] == {"trace": 3, "wp": 16}
    assert ("witness" in verdict) == (code == 1)


@pytest.mark.parametrize("command, schema", [("calc", "contract"),
                                             ("oracle", "observations")])
@pytest.mark.parametrize("program", ["buffer", "extchoice", "while_chaos"])
def test_contract_and_observations_json_match_schemas(
    capsys, command, schema, program
):
    _, out = _run(capsys, command, str(CORPUS / f"{program}.rp"),
                  "--trace-bound", "2")
    jsonschema.validate(out, _schema(schema))


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["crosscheck", "--random", "1", "--seed", "1", "--jobs", "1"], True),
        (["laws", "--per-law", "1", "--terms", "1", "--seed", "1"], True),
        (["dlf", "skip.rp", "--seed", "1"], False),
        (["refine", "skip.rp", "skip.rp", "--jobs", "2"], False),
        (["dlf", "skip.rp", "--star-bound", "3"], False),
    ],
)
def test_flags_only_where_read(capsys, argv, accepted):
    argv = [str(CORPUS / a) if a.endswith(".rp") else a for a in argv]
    if accepted:
        assert cli.main(argv) in (0, 1)
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
