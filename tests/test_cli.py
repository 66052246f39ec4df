"""Command-line surface: verbs, output forms, exit codes."""

import argparse
import hashlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import izeta.cli as cli
import izeta.identities as identities
import izeta.reduction as reduction
from izeta.algebra import FormalSum, Index, Word, parse_formal_sum, t_harmonic_product
from izeta.interpolate import s_t
from izeta.numeric import eval_element, mzsv
from izeta.reduction import RelationCertificate

from helpers import (
    compositions,
    parse_printed_sum,
    printed_certificates_hold,
    watch_left_sides,
)


def w(*letters):
    return FormalSum.from_word(Word(letters))


def run_lines(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


def test_expand_prints_the_interpolated_expansion(capsys):
    code, out, _ = run_lines(capsys, ["expand", "--index", "2,1"])
    assert code == 0
    assert parse_formal_sum(out[0]) == s_t(w(2, 1))


def test_st_prints_canonical_text(capsys):
    code, out, _ = run_lines(capsys, ["st", "--word", "2,1"])
    assert code == 0
    assert out[0] == "(1)*[2,1] + (t)*[3]"


@pytest.mark.parametrize("word", ["2", "2,1,1", "1,1", "3,1,2"])
def test_st_output_round_trips(capsys, word):
    code, out, _ = run_lines(capsys, ["st", "--word", word])
    assert code == 0
    letters = tuple(int(x) for x in word.split(","))
    assert parse_formal_sum(out[0]) == s_t(FormalSum.from_word(Word(letters)))


def test_product_verb_matches_library(capsys):
    code, out, _ = run_lines(
        capsys, ["product", "--mode", "t", "--left", "1", "--right", "1,1"]
    )
    assert code == 0
    assert parse_formal_sum(out[0]) == t_harmonic_product(w(1), w(1, 1))


def test_eval_json_record(capsys):
    code, out, _ = run_lines(
        capsys, ["eval", "--index", "3", "--t", "0", "--M", "5000", "--json"]
    )
    assert code == 0
    record = json.loads(out[0])
    assert record["index"] == "3" and record["M"] == 5000
    assert abs(record["value"] - 1.2020569) < 1e-5
    assert record["err"] >= 0
    assert record["kernel"] in {"compiled", "python"}


def test_eval_reports_method_and_bound_kind(capsys):
    code, out, _ = run_lines(capsys, ["eval", "--index", "2,1", "--t", "1/2", "--json"])
    assert code == 0
    record = json.loads(out[0])
    assert record["method"] == "convolution" and record["bound"] == "rigorous"
    code, out, _ = run_lines(capsys, ["eval", "--index", "2,1", "--t", "1/2"])
    assert code == 0
    assert out[0].endswith("[convolution]")
    assert "value=1.8030853547393915" in out[0]


def test_eval_interpolates_between_strict_and_star(capsys):
    code, out, _ = run_lines(
        capsys, ["eval", "--index", "2,1", "--t", "1/2", "--M", "5000", "--json"]
    )
    assert code == 0
    value = json.loads(out[0])["value"]
    assert abs(value - 1.8030) < 1e-3  # midpoint of 1.202... and 2.404...


def test_verify_sum_formula_passes_and_exits_zero(capsys):
    code, out, _ = run_lines(capsys, ["verify", "sum-formula", "--k", "4"])
    assert code == 0
    assert any("all ok" in line for line in out)


def test_verify_sum_formula_numeric_lines(capsys):
    code, out, _ = run_lines(
        capsys,
        ["verify", "sum-formula", "--k", "3", "--numeric", "--t", "1/3", "--M", "5000"],
    )
    assert code == 0
    assert any(line.startswith("ok   k=3 n=2") for line in out)


def test_verify_cyclic_json_document(capsys):
    code, out, _ = run_lines(capsys, ["verify", "cyclic", "--k", "3", "--json"])
    assert code == 0
    doc = json.loads(out[0])
    assert doc["suite"] == "cyclic" and doc["ok"]
    assert all(c["coefficients"] != "FAILURE" for c in doc["checks"])


def test_verify_alt_sum(capsys):
    code, out, _ = run_lines(capsys, ["verify", "alt-sum", "--word", "1,2,1"])
    assert code == 0
    assert "vanishes" in out[0]


def test_verify_two_one(capsys):
    code, out, _ = run_lines(capsys, ["verify", "two-one", "--j", "1,1", "--M", "20000"])
    assert code == 0
    assert out[0].startswith("ok")


def test_failed_suite_exits_one(capsys, monkeypatch):
    forced = [RelationCertificate(w(2), [w(3)], None, label="forced")]
    monkeypatch.setattr(cli, "certify_relations", lambda *args: forced)
    code, out, _ = run_lines(capsys, ["verify", "sum-formula", "--k", "3"])
    assert code == 1
    assert any("FAIL" in line for line in out)


def test_malformed_index_exits_two(capsys):
    code, _, err = run_lines(capsys, ["expand", "--index", "2,,1"])
    assert code == 2
    assert "malformed index" in err


def test_divergent_eval_exits_two(capsys):
    code, _, err = run_lines(capsys, ["eval", "--index", "1,2", "--M", "100"])
    assert code == 2
    assert "divergent" in err


def test_malformed_block_sizes_exit_two(capsys):
    code, _, err = run_lines(capsys, ["verify", "two-one", "--j", "x"])
    assert code == 2
    assert "malformed block sizes" in err and "invalid literal" not in err


def test_malformed_rational_exits_two(capsys):
    code, _, err = run_lines(capsys, ["eval", "--index", "2", "--t", "x/y"])
    assert code == 2
    assert "malformed rational" in err


@pytest.mark.parametrize("suite", ["sum-formula", "cyclic"])
def test_malformed_t_exits_two_before_any_certificate(capsys, monkeypatch, suite):
    def certify(*args):
        raise AssertionError("a certificate was built")

    monkeypatch.setattr(cli, "certify_relations", certify)
    code, out, err = run_lines(capsys, ["verify", suite, "--k", "9", "--numeric", "--t", "x"])
    assert code == 2 and not out
    assert "malformed rational" in err


@pytest.mark.parametrize("suite", ["sum-formula", "cyclic"])
def test_bad_M_exits_two_before_any_certificate(capsys, monkeypatch, suite):
    def certify(*args):
        raise AssertionError("a solver or certificate was built")

    # the numeric checks ride the relation stream that the certifier reads
    for name in ("SpanSolver", "RelationCertificate"):
        monkeypatch.setattr(reduction, name, certify)
    # M = 3 is below the depth of the deeper weight-9 words only
    for m in ("0", "3"):
        argv = ["verify", suite, "--k", "9", "--numeric", "--M", m]
        code, out, err = run_lines(capsys, argv)
        assert code == 2 and not out
        assert f"truncation M={m}" in err


@pytest.mark.parametrize("suite", ["sum-formula", "cyclic"])
def test_weight_below_two_exits_two_before_any_side(capsys, monkeypatch, suite):
    def build(*args):
        raise AssertionError("a side or certificate was built")

    for name in ("certify_relations", "verify_identity"):
        monkeypatch.setattr(cli, name, build)
    for k in ("-1", "0", "1"):
        code, out, err = run_lines(capsys, ["verify", suite, "--k", k, "--numeric"])
        assert code == 2 and not out
        assert "weight must be at least 2" in err


def test_unknown_verb_exits_two(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_option_exits_two(capsys):
    assert cli.run(["st"]) == 2
    capsys.readouterr()


# Every command's options as (required, default, help), "-h" aside.
JSON = {"--json": (False, False, None)}
TRUNCATION = {**JSON, "--M": (False, 100000, None)}
RATIONAL = "exact rational p/q"
SUITE = {
    **TRUNCATION,
    "--k": (True, None, None),
    "--numeric": (False, False, None),
    "--t": (False, "1/2", RATIONAL),
}
CLI_OPTIONS = {
    ("expand",): {**JSON, "--index": (True, None, 'index like "2,1"')},
    ("st",): {**JSON, "--word": (True, None, 'word like "2,1,1"')},
    ("product",): {
        **JSON,
        "--mode": (True, None, None),
        "--left": (True, None, 'word like "1"'),
        "--right": (True, None, 'word like "1,1"'),
    },
    ("eval",): {**TRUNCATION, "--index": (True, None, None), "--t": (False, "0", RATIONAL)},
    ("verify", "sum-formula"): SUITE,
    ("verify", "cyclic"): SUITE,
    ("verify", "alt-sum"): {**JSON, "--word": (True, None, None)},
    ("verify", "two-one"): {**TRUNCATION, "--j": (True, None, 'block sizes like "1,1"')},
}


def leaf_commands(parser, path=()):
    """(command path, parser) for each command that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_commands(child, path + (name,))


def test_every_command_keeps_exactly_its_options():
    commands = dict(leaf_commands(cli.build_parser()))
    options = {
        path: {a.option_strings[0]: a for a in p._actions if a.dest != "help"}
        for path, p in commands.items()
    }
    assert all(len(a.option_strings) == 1 for o in options.values() for a in o.values())
    surface = {
        path: {name: (a.required, a.default, a.help) for name, a in o.items()}
        for path, o in options.items()
    }
    assert surface == CLI_OPTIONS
    for o in options.values():
        assert type(o["--json"]) is argparse._StoreTrueAction
        assert all(o[name].type is int for name in ("--M", "--k") if name in o)
    assert options[("product",)]["--mode"].choices == ["harmonic", "star", "t"]


# Digests of stdout, each recorded before the code behind it was rewritten
# (the certificate path, the operator's expansion); the same under every
# PYTHONHASHSEED.
PINNED_STDOUT = {
    ("verify", "cyclic", "--k", "6", "--json"):
        "1af9f13be2374855146af443b71c7050d8f1af50b05120ef032dae2508a49100",
    ("verify", "sum-formula", "--k", "9", "--json"):
        "ff4656219a75f9ce681e8286cb69979af0edf2570060f352f3d30466150ae34d",
    ("verify", "cyclic", "--k", "5", "--numeric"):
        "144be3cf8cb8d0ec14f302e5d1d8615c8bed805799a8877752260cd95419c9c8",
    ("verify", "sum-formula", "--k", "6", "--numeric", "--json"):
        "9db1cadc075b2cfd8c299dd5360a78b03b3b2b96af73b9b6db63226aa3fa4b2e",
    ("verify", "cyclic", "--k", "8"):
        "cf7e62c1e22411dc9f12fe92871487191d5fae58b7df2c5fbd7bed830a89f76a",
    ("verify", "cyclic", "--k", "9"):
        "0900c135188ab1f192e5daa1a11174cb13bac51648e004b764d568babf23f415",
    ("verify", "cyclic", "--k", "10"):
        "0e5ea95a6b6f0e7d6188f2c24bfc4252b1fd2709e4b7cfbe7fde0b2e0fda8dc5",
    ("verify", "sum-formula", "--k", "11", "--json"):
        "fa23404aebcc9ae3b7f5b1b03ff0d872a03b1c6656d7462c4562881d86334baf",
    ("expand", "--index", "3,1,2,1,1", "--json"):
        "24bdbfe2d0e1e8ef0a89be8375631c33006341fa3cdea480f36633bf18612189",
    ("st", "--word", "2,1,3,1"):
        "1244da3b874ddcfeec0d19479890b459ea92e702b3bd8bc7119e9592b72defcf",
    ("eval", "--index", "2,1,1", "--t", "1/2", "--json"):
        "6585d54c88242f4c14f4e57732ffdc7b232d6b90d3b6cebfae6fbdebc395ed43",
    # written --k=14 so that it sorts last and the other cases keep their IDs
    ("verify", "sum-formula", "--k=14"):
        "87a337b030389fb257074a06408637d578fdf96b083e2c72cf30d4248c51bae2",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_certificate_output_is_pinned_byte_for_byte(capsys, argv):
    assert cli.run(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_STDOUT[argv]


@pytest.mark.parametrize("argv", sorted(a for a in PINNED_STDOUT if a[0] == "verify"))
def test_each_verify_call_runs_s_t_once_over_all_its_identities(capsys, monkeypatch, argv):
    runs = []
    run = identities._s_t_lists
    monkeypatch.setattr(
        identities, "_s_t_lists", lambda lists: runs.append(len(lists)) or run(lists)
    )
    assert cli.run(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_STDOUT[argv]
    k = int(" ".join(argv).replace("=", " ").split("--k ")[1].split()[0])
    if argv[1] == "sum-formula":
        # one word list per depth n < k
        expected = k - 1
    else:
        # two word lists, the split and the raised rotations, per rotation
        # class of the words of depth below k
        classes = {min(c[i:] + c[:i] for i in range(len(c))) for c in compositions(k) if len(c) < k}
        expected = 2 * len(classes)
    assert runs == [expected]


def test_numeric_sum_formula_output_is_pinned_byte_for_byte(capsys):
    # recorded before the series shared their inner layers; kept out of
    # PINNED_STDOUT so that the IDs of its sorted cases stay as they are
    assert cli.run(["verify", "sum-formula", "--k", "12", "--numeric"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "d07daf0186edb9a5f78b0ce42c0429d67ae2e1b8004e23403e4d34958a355c37"
    )


# recorded before the series walked their index parts; kept out of
# PINNED_STDOUT so that the IDs of its sorted cases stay as they are
NUMERIC_PINS = {
    ("eval", "--index", "3,1,2", "--t", "-2/3", "--json"):
        "d09da76002e3c59cdbb8511118adf35c3a44fd7794baded3ea0f8583c424634a",
    # M = 20 reads only the first entries of the tails' vectors
    ("eval", "--index", "2,1,1", "--t", "1/2", "--M", "20", "--json"):
        "d12140f94fea1b7e86447f29f5952c8ee379e7189dcc033d3ae0bce6756973bc",
    ("verify", "two-one", "--j", "1,2", "--json"):
        "e0ac9808ec1b94d167766365b745e28c0cbcf379554d78bfabb65a114e7404ad",
}


@pytest.mark.parametrize("argv", sorted(NUMERIC_PINS))
def test_numeric_values_are_pinned_byte_for_byte(capsys, argv):
    assert cli.run(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == NUMERIC_PINS[argv]


# recorded before the numeric checks rode the relation stream; kept out of
# the dicts above so that the IDs of their sorted cases stay as they are
STREAMED_NUMERIC_PINS = {
    # the words of one rotation class repeat their class's report
    ("verify", "cyclic", "--k", "10", "--numeric"):
        "34a280a403021d0fc18fe3f5fd12a00fe2d96ffe89e3f115aa7024d51fbad10d",
    ("verify", "cyclic", "--k", "6", "--numeric", "--json"):
        "7b810bf9e0d72b11bccae675f486c5bb057eae3bb6be75ff3e42a0885b526ff7",
}


@pytest.mark.parametrize("argv", sorted(STREAMED_NUMERIC_PINS))
def test_streamed_numeric_output_is_pinned_byte_for_byte(capsys, argv):
    assert cli.run(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == STREAMED_NUMERIC_PINS[argv]


@pytest.mark.parametrize("argv", [
    ["expand", "--index", "3,1,2"],
    ["st", "--word", "2,1,3"],
    ["product", "--left", "2,1", "--right", "3", "--mode", "t"],
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_each_printed_sum_is_rendered_once(capsys, monkeypatch, argv, json_flag):
    calls, render = [], FormalSum.__str__
    monkeypatch.setattr(FormalSum, "__str__", lambda e: calls.append(e) or render(e))
    assert cli.run(argv + json_flag) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1 and str(calls[0]) in out


def test_each_certificate_is_verified_once(capsys, monkeypatch):
    calls = []
    verify = reduction.verify_certificates

    def spy(certs):
        certs = list(certs)
        calls.extend(certs)
        return verify(certs)

    # every route to the verifier: the cli's name and RelationCertificate.verify
    monkeypatch.setattr(cli, "verify_certificates", spy)
    monkeypatch.setattr(reduction, "verify_certificates", spy)
    code, out, _ = run_lines(capsys, ["verify", "cyclic", "--k", "4"])
    assert code == 0
    assert len(calls) == len(out) - 1 == len({id(c) for c in calls})


def _identity(label):
    """The identity a relation label such as "k=5 word=1,4" or "k=7 n=3"
    states: a sum-formula depth, or the rotation class of a cyclic word,
    as its least rotation, since both sides sum over the rotations."""
    kind, value = label.split()[-1].split("=")
    if kind == "n":
        return int(value)
    word = tuple(int(x) for x in value.split(","))
    return min(word[i:] + word[:i] for i in range(len(word)))


@pytest.mark.parametrize("suite, k, relations", [("sum-formula", "7", 6), ("cyclic", "5", 15)])
def test_numeric_builds_each_relation_once(capsys, monkeypatch, suite, k, relations):
    batches, evaluated = [], []
    for name in ("_sum_formula_batch", "_cyclic_batch"):
        build = getattr(reduction, name)
        monkeypatch.setattr(
            reduction, name, lambda *args, build=build: batches.append(args[-1]) or build(*args)
        )
    verify = cli.verify_identity
    monkeypatch.setattr(
        cli, "verify_identity", lambda *args: evaluated.append(args) or verify(*args)
    )
    code, out, _ = run_lines(capsys, ["verify", suite, "--k", k, "--numeric"])
    assert code == 0
    # one line per numeric check follows the certificates and their summary
    numeric = [line.split(":")[0].split(maxsplit=1)[1] for line in out if " t=" in line]
    assert len(numeric) == relations
    # each identity, one per depth or rotation class (6 of the 15 cyclic
    # words at k = 5), is built once, in one batch, and evaluated once
    identities = {_identity(label) for label in numeric}
    [batch] = batches
    built = {n if type(n) is int else _identity(f"word={n}") for n in batch}
    assert len(batch) == len(evaluated) == len(identities) == 6
    assert built == identities


@pytest.mark.parametrize("suite, k, batches", [
    pytest.param("sum-formula", "7", [6], id="sum-formula-7"),
    pytest.param("cyclic", "5", [6], id="cyclic-5"),
])
def test_numeric_checks_each_identity_as_the_certifier_reads_it(
    capsys, monkeypatch, suite, k, batches
):
    # the identities are built in one run, then each is evaluated and
    # shifted in turn, so no identity's sides wait for the next one's
    calls = []
    spies = [
        (reduction, "_sum_formula_batch", "build"),
        (reduction, "_cyclic_batch", "build"),
        (cli, "verify_identity", "evaluate"),
        (reduction, "_taylor_parts", "shift"),
    ]
    for owner, name, step in spies:
        call = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, step=step, call=call: calls.append(step) or call(*args)
        )
    code, _, _ = run_lines(capsys, ["verify", suite, "--k", k, "--numeric"])
    assert code == 0
    # six depths, or six rotation classes of the 15 cyclic words at k = 5
    assert calls == [
        step for size in batches for step in ["build"] + ["evaluate", "shift"] * size
    ]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("suite, k, keys", [("sum-formula", "9", 8), ("cyclic", "7", 18)])
def test_numeric_lets_each_keys_sides_go_before_the_next_are_built(
    capsys, monkeypatch, suite, k, keys, json_flag
):
    refs = watch_left_sides(monkeypatch, reduction)
    code, out, _ = run_lines(capsys, ["verify", suite, "--k", k, "--numeric", *json_flag])
    # one left side per key, and none outlives the command
    assert code == 0 and out
    assert len(refs) == keys and all(ref() is None for ref in refs)


_CLI_UNDER_SIGNALS = """
import signal, sys
from izeta import cli
signal.signal(signal.SIGALRM, lambda *_: None)
signal.setitimer(signal.ITIMER_REAL, 0.002, 0.002)
try:
    code = cli.run(sys.argv[1:])
finally:
    signal.setitimer(signal.ITIMER_REAL, 0)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs interval timers")
def test_json_survives_signals_while_stdout_blocks():
    # Unbuffered stdout, a timer signal every 2 ms, and a reader that waits
    # until the pipe is long full: no long write may be cut short.
    argv = ("verify", "sum-formula", "--k", "9", "--json")
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.Popen(
        [sys.executable, "-u", "-c", _CLI_UNDER_SIGNALS, *argv],
        stdout=subprocess.PIPE,
        env=env,
    )
    time.sleep(1.5)
    out, _ = child.communicate(timeout=120)
    assert child.returncode == 0
    assert hashlib.sha256(out).hexdigest() == PINNED_STDOUT[argv]


class _File(io.RawIOBase):
    """A file that keeps the bytes written to it."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += b
        return len(b)


class _Stdout(io.TextIOWrapper):
    """A text stdout that records the length of each write."""

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_a_buffered_stdout_takes_whole_pieces_and_gets_the_same_bytes(monkeypatch):
    # The text layer straight on the file, as `python -u` sets stdout up,
    # then with a buffered binary layer between them, as without it.
    argv = ("verify", "sum-formula", "--k", "9", "--json")
    written = []
    for buffered in (False, True):
        file = _File()
        stdout = _Stdout(io.BufferedWriter(file) if buffered else file, "ascii",
                         write_through=not buffered)
        stdout.sizes = []
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.run(list(argv)) == 0
        stdout.flush()
        monkeypatch.undo()
        written.append((bytes(file.data), stdout.sizes))
    (sliced, slices), (whole, pieces) = written
    assert hashlib.sha256(sliced).hexdigest() == PINNED_STDOUT[argv]
    assert whole == sliced
    assert max(slices) == 512 and sum(slices) == len(sliced)
    assert len(pieces) < len(slices) and max(pieces) > 512


def test_a_closed_stdout_exits_141_without_a_traceback():
    # 138 KB of stdout, more than a pipe holds, so a write after the
    # reader has gone meets a closed pipe
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    child = subprocess.Popen(
        [sys.executable, "-m", "izeta", "verify", "cyclic", "--k", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert child.stdout.readline() == b"ok   cyclic k=10 word=10 power=0\n"
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("suite, k", [("cyclic", 6), ("sum-formula", 9)])
def test_only_numeric_converts_sides_to_formal_sums(capsys, monkeypatch, suite, k):
    calls = []
    convert = identities.formal_sides
    spy = lambda sides: calls.append(sides) or convert(sides)
    # every route to the converter: the cli's name and the identities' own
    monkeypatch.setattr(cli, "formal_sides", spy)
    monkeypatch.setattr(identities, "formal_sides", spy)
    assert cli.run(["verify", suite, "--k", str(k)]) == 0
    assert calls == []
    assert cli.run(["verify", suite, "--k", str(k), "--numeric"]) == 0
    capsys.readouterr()
    # once per identity: a depth, or a rotation class of a cyclic word
    words = [v for v in compositions(k) if len(v) < k]
    classes = {min(v[i:] + v[:i] for i in range(len(v))) for v in words}
    assert len(calls) == (len(classes) if suite == "cyclic" else k - 1)


@pytest.mark.parametrize(
    "argv",
    [["verify", "cyclic", "--k", "6", "--json"], ["verify", "sum-formula", "--k", "9", "--json"]],
)
def test_printed_certificates_hold_by_a_check_on_the_text_alone(capsys, argv):
    assert cli.run(argv) == 0
    document = capsys.readouterr().out
    verdicts = printed_certificates_hold(document)
    assert verdicts and all(verdicts)
    # change one nonzero coefficient on a nonzero generator: the check fails
    # that record and no other
    doc = json.loads(document)
    n, i = next(
        (n, i)
        for n, record in enumerate(doc["checks"])
        for i, (c, g) in enumerate(zip(record["coefficients"], record["generators"]))
        if c != "0" and g != "0"
    )
    coeffs = doc["checks"][n]["coefficients"]
    coeffs[i] = str(Fraction(coeffs[i]) + 1)
    verdicts = printed_certificates_hold(json.dumps(doc))
    assert [v for v in verdicts if not v] == [False] and not verdicts[n]


def _streamed_and_dumped(capsys, monkeypatch, argv, tamper=None):
    """The exit status and stdout of `izeta verify ... --json`, and the
    document json.dumps writes of the same certificates and numeric
    reports, caught on their way to the printer and tampered with first
    if asked."""
    seen, reports = {}, []
    certify, evaluate = cli.certify_relations, cli.verify_identity

    def certified(suite, relations, alpha):
        seen["keys"], _ = relations
        certs = seen["certs"] = certify(suite, relations, alpha)
        if tamper is not None:
            tamper(certs)
        return certs

    monkeypatch.setattr(cli, "certify_relations", certified)
    monkeypatch.setattr(
        cli, "verify_identity", lambda *args: reports.append(evaluate(*args)) or reports[-1]
    )
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    certs = seen["certs"]
    doc = {
        "suite": argv[1],
        "checks": reduction.certificate_records(certs),
        "ok": all(reduction.verify_certificates(certs)),
    }
    if reports:
        # one report per identity, in the order of each key's first relation
        by_key = dict(zip(dict.fromkeys(key for _, key in seen["keys"]), reports))
        doc["numeric"] = [
            {"label": label, "checks": [str(c) for c in by_key[key].checks], "ok": by_key[key].ok}
            for label, key in seen["keys"]
        ]
    return code, out, json.dumps(doc, sort_keys=True) + "\n"


def _first_difference(a, b):
    """None if the texts a and b are equal, else the offset of their
    first difference and what each holds from there: a short failure
    message where a diff of two long documents takes minutes."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[i : i + 60], b[i : i + 60]


@pytest.mark.parametrize("numeric", [[], ["--numeric"]], ids=["", "numeric"])
@pytest.mark.parametrize(
    "suite, k", [("cyclic", k) for k in range(2, 7)] + [("sum-formula", k) for k in range(2, 10)]
)
def test_the_streamed_verify_document_is_what_json_dumps_writes(
    capsys, monkeypatch, suite, k, numeric
):
    argv = ["verify", suite, "--k", str(k), "--json", *numeric]
    code, out, dumped = _streamed_and_dumped(capsys, monkeypatch, argv)
    assert code == 0 and _first_difference(out, dumped) is None
    verdicts = printed_certificates_hold(out)
    assert verdicts and all(verdicts)


def test_a_failed_certificate_streams_as_json_dumps_writes_it(capsys, monkeypatch):
    def tamper(certs):
        certs[7].coefficients = None

    argv = ["verify", "cyclic", "--k", "5", "--json"]
    code, out, dumped = _streamed_and_dumped(capsys, monkeypatch, argv, tamper)
    assert code == 1 and _first_difference(out, dumped) is None
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["checks"][7]["coefficients"] == "FAILURE" and doc["checks"][7]["success"] is False
    assert printed_certificates_hold(out) == [n != 7 for n in range(len(doc["checks"]))]


def test_the_printed_sum_parser_refuses_what_is_not_a_t_free_sum():
    assert parse_printed_sum("(1)*[2,1] + (-3/2)*[3]") == {(2, 1): 1, (3,): Fraction(-3, 2)}
    assert parse_printed_sum("0") == {}
    for text in ["(t)*[3]", "(1 - t)*[2,1]", "(0)*[3]", "(1)*[3] + (2)*[3]", "1*[3]", ""]:
        with pytest.raises(ValueError):
            parse_printed_sum(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--index", "3,1,2", "--t", "{t}"],
        ["eval", "--index", "2,1", "--t", "{t}", "--json"],
        ["verify", "sum-formula", "--k", "4", "--numeric", "--t", "{t}"],
        ["verify", "cyclic", "--k", "4", "--numeric", "--t", "{t}", "--json"],
    ],
)
def test_negative_t_reads_the_same_as_a_separate_argument(capsys, argv):
    for t in ("-2/3", "-1", "-0.5"):
        glued = [a for a in argv if a != "--t"]
        glued[glued.index("{t}")] = f"--t={t}"
        code, out, err = run_lines(capsys, glued)
        assert code == 0 and not err
        separate = [t if a == "{t}" else a for a in argv]
        assert run_lines(capsys, separate) == (code, out, err)


def test_t_without_a_value_is_still_a_usage_error(capsys):
    code, out, err = run_lines(capsys, ["eval", "--index", "2", "--t", "--json"])
    assert code == 2 and not out
    assert "argument --t: expected one argument" in err


def test_malformed_t_exits_two_without_numeric(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("a side or certificate was built")

    for name in ("certify_relations", "sum_formula_relations"):
        monkeypatch.setattr(cli, name, build)
    code, out, err = run_lines(capsys, ["verify", "sum-formula", "--k", "3", "--t", "x"])
    assert code == 2 and not out
    assert err == "error: malformed rational 'x' (write p/q)\n"


@pytest.mark.parametrize(
    "t", ["1e5000", "-1e-5000", "0." + "0" * 5000 + "1", "1e1000000"],
    ids=["1e5000", "-1e-5000", "0.0...01", "1e1000000"],
)
@pytest.mark.parametrize(
    "argv", [["eval", "--index", "2,1"], ["verify", "cyclic", "--k", "3", "--numeric"]]
)
def test_a_t_too_long_to_print_exits_two_before_any_work(capsys, monkeypatch, argv, t):
    def work(*args):
        raise AssertionError("an evaluation or a certificate was reached")

    for name in ("eval_element", "verify_identity", "certify_relations"):
        monkeypatch.setattr(cli, name, work)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    code, out, err = run_lines(capsys, argv + ["--t", t])
    assert code == 2 and not out
    assert f"rational too long: more than {limit} digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("t", ["1/2", "-2/3", "0.5", "1e-3", "1e4299", "1e-4299"])
def test_a_t_within_the_digit_limit_still_parses(capsys, t):
    for argv in (["--t", t], [f"--t={t}"]):
        code, out, err = run_lines(capsys, ["eval", "--index", "2", "--M", "3"] + argv)
        assert code == 0 and not err
        assert out[0].startswith(f"zeta^t(2) at t={Fraction(t)}, M=3: ")


@pytest.mark.parametrize("argv", [
    # about 1,000 words; 400 letters still print
    ["product", "--mode", "harmonic", "--left", ",".join(["2"] + ["1"] * 499), "--right", "1"],
    ["verify", "sum-formula", "--k", "1100"],
    ["verify", "cyclic", "--k", "1100"],
], ids=["product-500-letters", "sum-formula-1100", "cyclic-1100"])
def test_recursion_past_the_limit_exits_two_without_a_traceback(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: maximum recursion depth")


def test_the_sum_formula_past_the_recursion_limit_builds_no_right_side(capsys, monkeypatch):
    calls = []
    coeffs = identities._sum_poly_coeffs
    monkeypatch.setattr(
        identities, "_sum_poly_coeffs", lambda *args: calls.append(args) or coeffs(*args)
    )
    code, out, err = run_lines(capsys, ["verify", "sum-formula", "--k", "1100"])
    assert code == 2 and not out
    assert err.startswith("error: maximum recursion depth") and calls == []


@pytest.mark.parametrize("argv", [
    ["eval", "--index", "2,1", "--t", "1e400"],
    ["verify", "sum-formula", "--k", "4", "--numeric", "--t", "1e400"],
], ids=["eval", "verify-numeric"])
def test_a_value_beyond_float_range_exits_two_without_a_traceback(capsys, argv):
    # zeta^t(2,1) = zeta(2,1) + t zeta(3) is about 1.2e400 at t = 1e400
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.splitlines() == ["error: value or error bound beyond float range"]


def test_alt_sum_refuses_an_empty_word(capsys):
    code, out, err = run_lines(capsys, ["verify", "alt-sum", "--word", ""])
    assert code == 2 and not out
    assert err == "error: alt-sum needs a nonempty letter sequence\n"


def test_two_one_is_one_identity_check(capsys, monkeypatch):
    calls = []
    check = cli.verify_identity
    monkeypatch.setattr(
        cli, "verify_identity", lambda *args: calls.append(args) or check(*args)
    )
    code, out, _ = run_lines(capsys, ["verify", "two-one", "--j", "2,1", "--M", "300", "--json"])
    assert code == 0 and len(calls) == 1
    lhs, rhs, samples, m = calls[0]
    assert samples == [Fraction(1, 2)] and m == 300
    assert lhs.is_t_free() and rhs.is_t_free()
    # the star value, and 2^n times the value at t = 1/2, each evaluated alone
    star = mzsv(Index((2, 2, 1, 2, 1)), 300)
    half = eval_element(s_t(w(5, 3)), Fraction(1, 2), 300)
    record = json.loads(out[0])
    assert record["lhs"] == star.value and record["rhs"] == 4 * half.value
    assert record["tol"] == star.err + 4 * half.err
    assert record["residual"] == abs(star.value - 4 * half.value) and record["ok"]


@pytest.mark.parametrize("j, depth", [("1", 2), ("2,2", 6), ("3,1,2", 9)])
def test_two_one_refuses_M_below_the_star_depth(capsys, j, depth):
    for m in (depth - 1, 0):
        code, out, err = run_lines(capsys, ["verify", "two-one", "--j", j, "--M", str(m)])
        assert code == 2 and not out
        assert err == f"error: truncation M={m} below depth {depth}\n"
    code, out, _ = run_lines(capsys, ["verify", "two-one", "--j", j, "--M", str(depth)])
    assert code == 0 and out[0].startswith("ok")


def _readme_examples():
    """(argv, expected stdout lines) of each `$ izeta` example in the
    first code block of README's "Command line" section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ izeta "):
            examples.append((shlex.split(line)[2:], []))
        elif line and examples:
            examples[-1][1].append(line)
    return examples


def _lines_match(expected, actual):
    """`actual` equals `expected`, where a "..." line stands for any run
    of lines."""
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(_lines_match(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and _lines_match(expected[1:], actual[1:])


def test_readme_line_matcher():
    assert _lines_match(["a", "...", "d"], ["a", "b", "c", "d"])
    assert _lines_match(["a", "...", "b"], ["a", "b"])
    assert not _lines_match(["a", "...", "d"], ["a", "b", "c"])
    assert not _lines_match(["a"], ["a", "b"])


def test_readme_command_line_examples_print_what_they_show(capsys):
    examples = _readme_examples()
    assert len(examples) >= 5
    for argv, expected in examples:
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 0 and not captured.err, argv
        assert _lines_match(expected, captured.out.splitlines()), (argv, captured.out)
