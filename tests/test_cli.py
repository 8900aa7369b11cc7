"""The command-line front end's JSON output against the shipped schemas."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from rdes import cli, dsl, ground, randgen
from rdes.contracts import NotProductiveError, calculate, skip_c
from rdes.relalg import NormalizationIncomplete
from rdes.state import StateSpaceTooLarge

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = ROOT / "corpus"
BUFFER_INV = "outps(tt)<=bf++inps(tt)"
TOO_LARGE = ("StateSpaceTooLarge: state space too large to enumerate: more "
             "than 500000 valuations")

# Programs the commands reject, written out by the tests that name them: one
# the calculator rejects, one with too many states to enumerate, three
# nested deeper than the parser or the desugaring recurses, a file that is
# not UTF-8 (bytes) and a directory (None)
REJECTED = {
    "ext_over_loop.rp": "channel a\nchannel b\nvar x : int[0..1]\n"
                        "while x < 1 do ((a -> (while x < 1 do "
                        "(b -> x := x + 1))) [] b -> skip)\n",
    "too_large.rp": "var x : seq int[0..3] maxlen 12\nx := <>\n",
    "deep_seq.rp": "channel a\n" + " ; ".join(["a"] * 600) + "\n",
    "deep_action.rp": "channel a\na -> " + "(" * 500 + "skip" + ")" * 500,
    "deep_expr.rp": "var x : int[0..3]\nx := " + "(" * 500 + "1" + ")" * 500,
    "not_utf8.rp": b"channel a\n\xff\n",
    "a_directory.rp": None,
}


def _schema(name):
    path = ROOT / "src" / "rdes" / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def _run(capsys, *argv):
    # oracle prints only JSON, and takes no --format
    fmt = [] if argv[0] == "oracle" else ["--format", "json"]
    code = cli.main([*argv, *fmt])
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
    # calc reads no trace bound
    bound = ["--trace-bound", "2"] if command == "oracle" else []
    _, out = _run(capsys, command, str(CORPUS / f"{program}.rp"), *bound)
    jsonschema.validate(out, _schema(schema))


def test_random_contracts_match_schema():
    schema = _schema("contract")
    for seed in range(200):
        tp = randgen.random_program(randgen.rng_for(seed))
        jsonschema.validate(calculate(tp).to_json(), schema)
    for seed in range(50):
        tp = randgen.random_loop_program(randgen.rng_for(seed))
        try:
            c = calculate(tp)
        except (NotProductiveError, NormalizationIncomplete):
            continue
        jsonschema.validate(c.to_json(), schema)


def test_crosscheck_json_matches_schema(capsys, monkeypatch):
    schema = _schema("crosscheck")
    # every buffer state reaches bf = <> before it reads bf
    code, out = _run(capsys, "crosscheck", str(CORPUS / "buffer.rp"))
    jsonschema.validate(out, schema)
    assert (code, out["initial_states"], out["classes"],
            out["differences"]) == (0, 7, 1, 0)
    code, out = _run(capsys, "crosscheck", "--random", "20", "--loops")
    jsonschema.validate(out, schema)
    assert code == 0
    assert 20 <= out["classes"] <= out["initial_states"]
    # against a wrong contract each state's differences name it
    monkeypatch.setattr(cli, "_calculate", lambda tp, cfg: skip_c())
    code, out = _run(capsys, "crosscheck", str(CORPUS / "while_chaos.rp"))
    jsonschema.validate(out, schema)
    assert code == 1
    assert [d["state"] for d in out["diffs"]] == [
        f"{{x={x}}}" for x in range(4) for _ in range(2)]


def test_calc_rejects_external_choice_over_a_loop(capsys, tmp_path):
    path = tmp_path / "extloop.rp"
    path.write_text(
        "channel a\nchannel b\nvar x : int[0..1]\n"
        "(a ; while x < 1 do (b ; x := x + 1)) [] b\n"
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["calc", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: NormalizationIncomplete: "
        "external choice over a non-literal pericondition\n"
    )


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["crosscheck", "--random", "1", "--seed", "1"], True),
        (["laws", "--per-law", "1", "--terms", "1", "--seed", "1"], True),
        (["dlf", "skip.rp", "--seed", "1"], False),
        (["refine", "skip.rp", "skip.rp", "--jobs", "2"], False),
        (["dlf", "skip.rp", "--star-bound", "3"], False),
        # calc reads only the wp bound, oracle only the trace bound, and
        # laws neither
        (["calc", "skip.rp", "--wp-bound", "3"], True),
        (["oracle", "skip.rp", "--trace-bound", "2"], True),
        (["calc", "skip.rp", "--trace-bound", "3"], False),
        (["oracle", "skip.rp", "--wp-bound", "3"], False),
        (["laws", "--per-law", "1", "--terms", "1", "--trace-bound", "3"],
         False),
        (["laws", "--per-law", "1", "--terms", "1", "--wp-bound", "3"],
         False),
        # the refine forms exclude each other
        (["refine", "buffer.rp", "--invariant", "true", "--post", "false"],
         False),
        (["refine", "buffer.rp", "buffer.rp", "--invariant", "true"], False),
        (["refine", "buffer.rp", "buffer.rp", "--peri", "true"], False),
        (["refine", "buffer.rp", "buffer.rp", "--post", "true"], False),
        (["refine", "dlf", "buffer.rp", "--peri", "true"], False),
        (["refine", "dlf", "buffer.rp", "--invariant", "true"], False),
        (["crosscheck", "--random", "1", "--jobs", "2"], False),
        # oracle prints only JSON
        (["oracle", "skip.rp", "--format", "text"], False),
        # crosscheck reads a file, or generates at least one program
        (["crosscheck", "skip.rp", "--random", "2"], False),
        (["crosscheck", "skip.rp", "--loops"], False),
        (["crosscheck", "skip.rp", "--seed", "3"], False),
        (["crosscheck", "--random", "0"], False),
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


@pytest.mark.parametrize(
    "argv, ignored",
    [
        (["refine", "skip.rp", "--invariant", "true", "--post", "false"],
         "refine --invariant proves no postcondition, so --post would be "
         "ignored"),
        (["refine", "stop.rp", "skip.rp", "--invariant", "true"],
         "refine reads no spec with --invariant, so stop.rp would be "
         "ignored"),
        (["refine", "dlf", "skip.rp", "--post", "true"],
         "refine reads no spec with --post, so dlf would be ignored"),
        # crosscheck checks a file or random programs, never both
        (["crosscheck", "skip.rp", "--random", "2"],
         "crosscheck reads no file with --random, so skip.rp would be "
         "ignored"),
        (["crosscheck", "skip.rp", "--loops"],
         "crosscheck generates no programs without --random, so --loops "
         "would be ignored"),
        (["crosscheck", "skip.rp", "--seed", "3"],
         "crosscheck generates no programs without --random, so --seed "
         "would be ignored"),
    ],
)
def test_refine_names_the_input_it_would_ignore(capsys, argv, ignored):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {ignored}\n")


@pytest.mark.parametrize(
    "spec, impl, declaration",
    [
        ("buffer.rp", "a_stop.rp", "var bf : seq int[0..1] maxlen 2"),
        ("ex2_lhs.rp", "while_chaos.rp", "channel a : int[0..3]"),
    ],
)
def test_refine_needs_the_specifications_declarations(spec, impl, declaration):
    # the specification is read over the implementation's declarations
    proc = subprocess.run(
        [sys.executable, "-m", "rdes", "refine",
         str(CORPUS / spec), str(CORPUS / impl)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert declaration in proc.stderr


def test_refine_names_a_mistyped_declaration(capsys, tmp_path):
    spec, impl = tmp_path / "spec.rp", tmp_path / "impl.rp"
    spec.write_text("channel a : int[0..1]\na!0 -> skip\n")
    impl.write_text("channel a : int[0..3]\na!0 -> skip\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["refine", str(spec), str(impl)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: {spec} declares channel a : int[0..1], "
        f"but {impl} declares channel a : int[0..3]\n"
    )


def test_collection_thresholds_hold_only_while_a_command_runs(
    capsys, monkeypatch
):
    # a command runs with the collector off and the caller's thresholds,
    # and leaves both as it found them, also when it fails
    seen = []
    real = cli.cmd_dlf

    def spy(args):
        seen.append((gc.isenabled(), gc.get_threshold()))
        return real(args)

    def too_large(args):
        seen.append((gc.isenabled(), gc.get_threshold()))
        raise StateSpaceTooLarge("more than 1 valuation")

    argv = ["dlf", str(CORPUS / "a_stop.rp")]
    before = gc.get_threshold()
    monkeypatch.setattr(cli, "cmd_dlf", spy)
    assert cli.main(argv) == 1
    assert (gc.isenabled(), gc.get_threshold()) == (True, before)
    monkeypatch.setattr(cli, "cmd_dlf", too_large)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert (gc.isenabled(), gc.get_threshold()) == (True, before)
    # a caller that runs without the collector keeps running without it
    gc.disable()
    try:
        monkeypatch.setattr(cli, "cmd_dlf", spy)
        assert cli.main(argv) == 1
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [(False, before)] * 3


def test_obligations_report_their_verdicts_and_scopes(capsys):
    # the precondition obligation is calculated, so no bound can change it;
    # the pericondition is walked to the bound; the universal postcondition
    # allows every observation at every length
    code, verdict = _run(capsys, "dlf", str(CORPUS / "buffer.rp"))
    jsonschema.validate(verdict, _schema("verdict"))
    assert code == 0
    assert [(o["kind"], o["verdict"], o["scope"])
            for o in verdict["obligations"]] == [
        ("pre", "verified", "unbounded"),
        ("peri", "verified", "bounded"),
        ("post", "verified", "unbounded"),
    ]


def test_each_obligation_reports_the_traces_it_visited(capsys):
    # the pericondition walk visits each trace on which the buffer pauses
    # once, from the one class of its states; the precondition is decided
    # from its clauses, and a universal postcondition allows every final
    # state, so neither visits a trace
    code, verdict = _run(capsys, "dlf", str(CORPUS / "buffer.rp"),
                         "--trace-bound", "8")
    jsonschema.validate(verdict, _schema("verdict"))
    assert code == 0
    tp = dsl.load_program((CORPUS / "buffer.rp").read_text())
    s = min(tp.symtab.valuations(), key=str)
    pauses = ground.quiet_instances(calculate(tp).peri, s, tp.symtab, 8)
    assert [(o["kind"], o["traces"]) for o in verdict["obligations"]] == [
        ("pre", 0), ("peri", len({t for t, _ in pauses})), ("post", 0)]


def test_crosscheck_reports_the_traces_it_visited(capsys):
    # the buffer's one class of initial states pauses after each trace it
    # can engage in and never terminates, so the walk visits the traces of
    # its pericondition, as `dlf` does
    code, out = _run(capsys, "crosscheck", str(CORPUS / "buffer.rp"),
                     "--trace-bound", "8")
    jsonschema.validate(out, _schema("crosscheck"))
    assert (code, out["classes"], out["traces"]) == (0, 1, 5_121)
    _, verdict = _run(capsys, "dlf", str(CORPUS / "buffer.rp"),
                      "--trace-bound", "8")
    assert verdict["obligations"][1]["traces"] == out["traces"]


def test_the_guarded_buffer_keeps_its_invariant_at_every_length(capsys):
    # the monitor search closes: from each of the 7 classes of states it
    # visits the step's start and the 7 pairs after one event, where each
    # side has the residue bf; a pause ends every branch of its walk, and
    # the universal postcondition allows every observation
    for bound in ("3", "8", "40"):
        code, verdict = _run(capsys, "inv-check",
                             str(CORPUS / "buffer_guarded.rp"),
                             "--invariant", BUFFER_INV, "--trace-bound", bound)
        jsonschema.validate(verdict, _schema("verdict"))
        assert code == 0
        assert [(o["verdict"], o["scope"], o["traces"])
                for o in verdict["obligations"]] == [
            ("verified", "unbounded", 0), ("verified", "unbounded", 7),
            ("verified", "unbounded", 14), ("verified", "unbounded", 0),
            ("verified", "unbounded", 0)], bound
    # the unguarded buffer's lag grows when an input is dropped, so the
    # search stops at the bound, short of the refutation at bound 5
    code, verdict = _run(capsys, "inv-check", str(CORPUS / "buffer.rp"),
                         "--invariant", BUFFER_INV, "--trace-bound", "4")
    assert code == 0
    assert [o["scope"] for o in verdict["obligations"]] == [
        "unbounded", "unbounded", "bounded", "unbounded", "unbounded"]


def test_refuted_obligation_is_named(capsys):
    code, verdict = _run(capsys, "inv-check", str(CORPUS / "buffer.rp"),
                         "--invariant", BUFFER_INV, "--trace-bound", "5")
    jsonschema.validate(verdict, _schema("verdict"))
    assert code == 1
    assert [o["origin"] for o in verdict["obligations"]
            if o["verdict"] == "refuted"] == ["step preserves pause invariant"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dlf", "buffer.rp", "--trace-bound", "0"],
         "--trace-bound must be >= 1"),
        (["crosscheck", "buffer.rp", "--wp-bound", "0"],
         "--wp-bound must be >= 1"),
        (["inv-check", "buffer.rp", "--invariant", "outps(tt)<="],
         "--invariant: 1:12: expected an expression"),
        (["inv-check", "buffer.rp", "--invariant", "nosuch(tt) <= bf"],
         "--invariant: no channel matches projection 'nosuch'"),
        (["refine", "buffer.rp", "--peri", "outps(tt)<="],
         "--peri: 1:12: expected an expression"),
        (["refine", "buffer.rp", "--post", "nosuch(tt) <= bf"],
         "--post: no channel matches projection 'nosuch'"),
        (["refine", "buffer.rp", "--invariant", "nosuch(tt) <= bf"],
         "--invariant: no channel matches projection 'nosuch'"),
        (["refine", "buffer.rp", "--invariant", BUFFER_INV,
          "--peri", "outps(tt)<="],
         "--peri: 1:12: expected an expression"),
        # an invariant body must be a condition
        (["inv-check", "buffer.rp", "--invariant", "bf + 1"],
         "--invariant: + expects integers in bf + 1"),
        (["inv-check", "buffer.rp", "--invariant", "#bf"],
         "--invariant: expected bool, found int[0..2] in #bf"),
        (["refine", "buffer.rp", "--peri", "bf"],
         "--peri: expected bool, found seq int[0..1] maxlen 2 in bf"),
        (["refine", "buffer.rp", "--peri", "acc <= {}"],
         "--peri: <= mixes kinds in acc <= {}"),
        (["refine", "buffer.rp", "--post", "bf' = #bf"],
         "--post: incompatible types seq int[0..1] maxlen 2 and int[0..2] "
         "in bf' = #bf"),
        (["inv-check", "buffer.rp", "--invariant", "outps(tt) = acc"],
         "--invariant: incompatible types seq int[0..1] maxlen inf and "
         "event set in proj(tt, out) = acc"),
        (["refine", "extchoice.rp", "--peri", "head(as(tt)) = 0"],
         "--peri: incompatible types no data and int[0..0] in "
         "head(proj(tt, a)) = 0"),
        # a pericondition has no final state, a postcondition no acceptance
        (["inv-check", "buffer.rp", "--invariant", "bf' = bf"],
         "--invariant: primed variable bf' is only for postconditions"),
        (["refine", "buffer_body.rp", "--post", "acc = {}"],
         "--post: acc is only for periconditions"),
        (["refine", "buffer.rp", "--peri", "#bf' < 2"],
         "--peri: primed variable bf' is only for postconditions"),
        (["refine", "buffer.rp", "--invariant", BUFFER_INV,
          "--peri", "acc != {} or bf' = <>"],
         "--peri: primed variable bf' is only for postconditions"),
        # the loop rule is only for programs the calculator accepts
        (["inv-check", "while_bad.rp", "--invariant", "true"],
         "NotProductive: loop body admits a terminated observation without "
         "events"),
        (["inv-check", "ext_over_loop.rp", "--invariant", "true"],
         "NormalizationIncomplete: external choice over a non-literal "
         "pericondition"),
        # and it is reported before a malformed invariant
        (["inv-check", "while_bad.rp", "--invariant", "bf' = bf"],
         "NotProductive: loop body admits a terminated observation without "
         "events"),
        # the calculator makes a chaos of this loop, not a star, so the loop
        # rule has no fixed point to read
        (["inv-check", "while_chaos.rp", "--invariant", "true"],
         "NotProductive: loop body admits a terminated observation without "
         "events"),
        (["refine", "while_chaos.rp", "--invariant", "true", "--peri", "true"],
         "NotProductive: loop body admits a terminated observation without "
         "events"),
        # a state space too large to enumerate, whichever command meets it
        (["dlf", "too_large.rp"], TOO_LARGE),
        (["refine", "too_large.rp", "too_large.rp"], TOO_LARGE),
        (["crosscheck", "too_large.rp"], TOO_LARGE),
        # a file that cannot be written, and negative counts
        (["oracle", "skip.rp", "--emit", "missing/x.json"],
         "--emit: No such file or directory"),
        (["crosscheck", "--random", "-4", "--loops"],
         "--random must be >= 1"),
        (["laws", "--per-law", "-3", "--terms", "-2"],
         "--per-law must be >= 0"),
        (["laws", "--terms", "-2"], "--terms must be >= 0"),
        (["laws", "--depth", "-1"], "--depth must be >= 0"),
        # a law suite that checks nothing
        (["laws", "--per-law", "0", "--terms", "0"],
         "relational laws checked nothing"),
        (["laws", "--per-law", "0"], "relational laws checked nothing"),
        (["laws", "--terms", "0"], "iteration laws checked nothing"),
        # a program nested too deeply, whichever command reads it
        *([[command, f"deep_{kind}.rp"],
           f"TMP/deep_{kind}.rp: program is nested too deeply"]
          for command in ("calc", "dlf", "crosscheck")
          for kind in ("seq", "action", "expr")),
        # a file that cannot be read as a program
        (["calc", "not_utf8.rp"],
         "TMP/not_utf8.rp: 'utf-8' codec can't decode byte 0xff in "
         "position 10: invalid start byte"),
        (["calc", "a_directory.rp"], "TMP/a_directory.rp: Is a directory"),
        (["inv-check", "buffer.rp", "--invariant",
          "(" * 500 + "true" + ")" * 500],
         "--invariant: expression is nested too deeply"),
    ],
)
def test_malformed_options_exit_2_with_a_message(capsys, tmp_path, argv,
                                                 message):
    for name, source in REJECTED.items():
        if source is None:
            (tmp_path / name).mkdir()
        elif isinstance(source, bytes):
            (tmp_path / name).write_bytes(source)
        else:
            (tmp_path / name).write_text(source)
    argv = [str((tmp_path if a in REJECTED else CORPUS) / a)
            if a.endswith(".rp") else
            str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", f"error: {message.replace('TMP', str(tmp_path))}\n")


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.rp")),
                         ids=lambda p: p.stem)
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_calc_prints_the_pinned_contract(capsys, path, fmt, suffix):
    # the canonical printed order, end to end: what `calc` writes for each
    # corpus file, stdout then stderr, as the files in `expected_calc` pin it
    try:
        cli.main(["calc", str(path), "--format", fmt])
    except SystemExit:
        pass
    out, err = capsys.readouterr()
    expected = TESTS / "expected_calc" / f"{path.stem}.{suffix}"
    assert out + err == expected.read_text()


def test_calc_keeps_true_and_1_apart(capsys, tmp_path):
    # nodes compare as tuples, so Lit(True) == Lit(1): anything that looked
    # a node up by its value would print 1 where the program says true, or
    # the other way round, in an update, a payload or a conditional branch
    path = tmp_path / "truth.rp"
    path.write_text(
        "channel c : int[0..1]\nchannel d : bool\n"
        "var x : int[0..1]\nvar y : bool\n"
        "(x := 1 ; y := true ; c!1 -> d!true -> skip)\n"
        "  [] (if y then (x := 1 ; c!x -> d!true -> skip)\n"
        "      else (y := true ; c!1 -> d!y -> skip))\n")
    assert cli.main(["calc", str(path)]) == 0
    assert capsys.readouterr().out == (
        "⦗true_r | E(true | <> | {c.1}) \\/ E(true | <c.1> | {d.true}) | "
        "Phi(true | {x |-> (if y then 1 else x), "
        "y |-> (if y then y else true)} | <c.1, d.true>) \\/ "
        "Phi(true | {x |-> 1, y |-> true} | <c.1, d.true>)⦘\n")


def test_wp_bound_holds_after_a_loop(capsys, tmp_path):
    # the chaos after the loop takes four saturation steps
    path = tmp_path / "count_then_chaos.rp"
    path.write_text("channel a\nvar x : int[0..3]\n"
                    "x := 0 ; (while x < 3 do (a -> x := x + 1)) ; chaos\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["calc", str(path), "--wp-bound", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "error: WpNotConvergedError: precondition saturation did not "
        "converge for ")
    assert cli.main(["calc", str(path), "--wp-bound", "4"]) == 0
    assert capsys.readouterr().out.startswith("⦗not I(true | <a, a, a>) | ")


@pytest.mark.parametrize("command, argv, calculating", [
    ("cmd_dlf", ["dlf", "a_stop.rp"], False),
    ("cmd_refine", ["refine", "a_stop.rp", "a_stop.rp"], False),
    ("cmd_inv_check", ["inv-check", "buffer.rp", "--invariant", "true"],
     False),
    ("cmd_crosscheck", ["crosscheck", "a_stop.rp"], True),
    ("cmd_calc", ["calc", "a_stop.rp"], True),
])
def test_only_discharging_commands_run_without_the_cyclic_collector(
    capsys, monkeypatch, command, argv, calculating
):
    # The name dates from when only the commands that discharge obligations
    # ran without the collector.  Now a command that only calculates
    # (`calculating`) runs without it too, and only the discharging ones
    # report obligations.
    seen = []
    real = getattr(cli, command)

    def spy(args):
        seen.append(gc.isenabled())
        return real(args)

    monkeypatch.setattr(cli, command, spy)
    argv = [str(CORPUS / a) if a.endswith(".rp") else a for a in argv]
    assert gc.isenabled()
    _, out = _run(capsys, *argv)
    assert seen == [False]
    assert gc.isenabled()
    assert ("obligations" in out) is not calculating


def test_every_command_runs_without_the_cyclic_collector(capsys,
                                                        monkeypatch):
    # what a command builds holds no reference cycles, so it runs without
    # the collector, and leaves it as it found it
    seen = []
    real = cli._config

    def spy(args):
        seen.append((args.command, gc.isenabled()))
        return real(args)

    monkeypatch.setattr(cli, "_config", spy)
    commands = [
        ["calc", "a_stop.rp"],
        ["refine", "a_stop.rp", "a_stop.rp"],
        ["dlf", "a_stop.rp"],
        ["inv-check", "buffer.rp", "--invariant", "true"],
        ["oracle", "a_stop.rp"],
        ["crosscheck", "a_stop.rp"],
        ["laws", "--per-law", "1", "--terms", "1"],
    ]
    for argv in commands:
        assert gc.isenabled()
        cli.main([str(CORPUS / a) if a.endswith(".rp") else a for a in argv])
        assert gc.isenabled()
    assert seen == [(argv[0], False) for argv in commands]
    # the cyclic objects left are the argument parser's, not some for each
    # program or state checked
    gc.disable()
    try:
        gc.collect()
        assert cli.main(["crosscheck", "--random", "100"]) == 0
        assert gc.collect() < 1_000
        # and a calculation or a discharge leaves no more of them than
        # parsing its arguments does, nor does a cross-check, whose pairs of
        # node sets form loops, nor reading an invariant; each command
        # builds its own subparser.  The invariant holds within bound 4
        buffer = str(CORPUS / "buffer.rp")
        invariant = ["--invariant", BUFFER_INV, "--trace-bound", "4"]
        for argv in (["calc", buffer], ["dlf", buffer],
                     ["refine", buffer, buffer], ["crosscheck", buffer],
                     ["crosscheck", "--random", "20", "--loops"],
                     ["inv-check", buffer, *invariant],
                     ["refine", buffer, *invariant,
                      "--peri", "outps(tt)<=inps(tt)"]):
            if argv[0] != "calc" and "--trace-bound" not in argv:
                argv += ["--trace-bound", "6"]
            cli._parser(argv[0]).parse_args(argv)
            parser = gc.collect()
            assert cli.main(argv) == 0
            assert gc.collect() == parser, argv
    finally:
        gc.enable()


PARSER_ERRORS = [
    ["--help"], ["-h"], [], ["dlf", "--help"], ["nosuch"], ["nosuch", "x"],
    ["--format", "json"], ["dlf", "skip.rp", "--bogus"], ["dlf"],
    ["dlf", "skip.rp", "--trace-bound", "x"],
    # the refine forms that exclude each other print the top-level usage
    ["refine", "skip.rp"],
    ["refine", "stop.rp", "skip.rp", "--invariant", "true"],
    ["refine", "skip.rp", "--invariant", "true", "--post", "false"],
    # and so do the crosscheck inputs that one would be ignored
    ["crosscheck", "skip.rp", "--random", "2"],
    ["crosscheck", "skip.rp", "--loops"],
]


@pytest.mark.parametrize("argv", PARSER_ERRORS,
                         ids=lambda argv: " ".join(argv) or "nothing")
def test_one_commands_parser_prints_what_every_commands_parser_does(
        capsys, monkeypatch, argv):
    # only the named command's subparser is built, yet help, usage and
    # errors are byte for byte those of the parser that holds every
    # command, whose usage lists them all
    monkeypatch.setenv("COLUMNS", "80")
    argv = [str(CORPUS / a) if a.endswith(".rp") else a for a in argv]

    def run():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    got = run()
    everything = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda command=None: everything())
    assert got == run()
    assert got[0] == (0 if "--help" in argv or "-h" in argv else 2)
    # the top-level usage, or the subparser's for an error of its own
    text = got[1] + got[2]
    assert ("{calc,refine,dlf,inv-check,oracle,crosscheck,laws}" in text
            or text.startswith("usage: rdes dlf "))


def test_main_builds_the_subparser_of_the_named_command_alone(
        capsys, monkeypatch):
    built = []
    real = cli._parser

    def spy(command=None):
        parser = real(command)
        built.append(sorted(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(cli, "_parser", spy)
    assert cli.main(["dlf", str(CORPUS / "a_stop.rp")]) == 1
    with pytest.raises(SystemExit):
        cli.main(["nosuch"])
    capsys.readouterr()
    # an unknown command is reported by the parser of every command
    assert built == [["dlf"], sorted(cli.COMMANDS)]
