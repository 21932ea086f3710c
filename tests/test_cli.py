"""End-to-end command-line behavior: outputs, exit codes, and byte
stability, driven through main() plus one real interpreter run."""

import gc
import io
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from fishburn import bijections, cli, format_matrix
from fishburn.cli import main
from fishburn.enumeration import IDENTITIES, IdentityReport, enumerate_family, verify_identities
from vectors import (
    A5,
    A6,
    A6_BLOCK,
    A6_IMAGE,
    A6_STEP1,
    A6_STEP2,
    S5,
    S5_IMAGE,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def write_matrix(tmp_path, m, name="matrix.txt"):
    path = tmp_path / name
    path.write_text(format_matrix(m))
    return str(path)


# --- verify -----------------------------------------------------------------------


def test_verify_single_identity(capsys):
    assert main(["verify", "--identity", "eq3", "--max-size", "2"]) == 0
    out, err = capsys.readouterr()
    assert out == (
        "eq3 n=1: pass (2 = 2*1)\n"
        "eq3 n=2: pass (6 = 2*3)\n"
        "all checks passed\n"
    )
    timing_lines = err.strip().splitlines()
    assert len(timing_lines) == 2
    assert all(re.fullmatch(r"eq3 n=\d+: \d+\.\d{3}s", line)
               for line in timing_lines)


def test_verify_all_identities(capsys):
    assert main(["verify", "--max-size", "1"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "all checks passed"
    for ident in ("eq1", "eq2", "eq3", "eq4", "eq8"):
        assert any(line.startswith(f"{ident} n=1: pass") for line in lines)


def test_verify_all_times_each_size(capsys):
    assert main(["verify", "--identity", "all", "--max-size", "2"]) == 0
    _, err = capsys.readouterr()
    timing_lines = err.splitlines()
    assert len(timing_lines) == 2
    assert all(re.fullmatch(r"all n=\d+: \d+\.\d{3}s", line) for line in timing_lines)


@pytest.mark.parametrize("max_size", [5, 6])
def test_verify_all_golden_bytes(max_size, capsys):
    assert main(["verify", "--identity", "all", "--max-size", str(max_size)]) == 0
    out, _ = capsys.readouterr()
    assert out == (GOLDEN / f"verify_all_{max_size}.txt").read_text()


def test_verify_without_asserts():
    # python -O strips assert statements, so no invariant may rest on one
    result = subprocess.run(
        [sys.executable, "-O", "-m", "fishburn", "verify", "--identity", "all",
         "--max-size", "4"],
        capture_output=True, text=True, check=False)
    golden = (GOLDEN / "verify_all_5.txt").read_text().splitlines(keepends=True)
    assert result.returncode == 0
    assert result.stdout == "".join(line for line in golden if " n=5: " not in line)


def test_verify_failure_prints_counterexample(monkeypatch, capsys):
    # the checker runs the chain's row body, which returns (rows, flag)
    chain = bijections._chain

    def flipped(rows):
        image, flag = chain(rows)
        return image, 1 - flag

    monkeypatch.setattr(bijections, "_chain", flipped)
    assert main(["verify", "--identity", "eq1", "--max-size", "3"]) == 1
    out, _ = capsys.readouterr()
    assert "eq1 n=1: FAIL (" in out
    assert "FAILURES detected\ncounterexample:\n2\n1 0\n0 1\n" in out


def test_verify_pass_makes_no_reference_cycles():
    # what lets verify pause the cyclic collector: with it paused, the
    # pass (walk and cache included) leaves nothing only it could free
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        enumerate_family.cache_clear()
        assert all(r.passed for r in verify_identities(IDENTITIES, 4))
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_verify_leaves_the_collector_as_it_found_it(collecting, monkeypatch):
    def failing(names, n):
        raise RuntimeError("pass interrupted")

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["verify", "--identity", "eq3", "--max-size", "2"]) == 0
        assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "verify_identities", failing)
        with pytest.raises(RuntimeError, match="pass interrupted"):
            main(["verify", "--identity", "eq3", "--max-size", "2"])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("value", ["0", "\u0663", " +2 ", "1_2"],
                         ids=["zero", "arabic-indic-3", "sign-and-spaces", "underscore"])
@pytest.mark.parametrize("command", [["verify", "--max-size"],
                                     ["count", "--family", "rm", "--size"]],
                         ids=["verify", "count"])
def test_verify_rejects_zero_bound(command, value):
    # sizes follow the matrix parser's rule: ASCII digits only
    with pytest.raises(SystemExit) as exc:
        main(command + [value])
    assert exc.value.code == 2


def test_verify_rejects_unknown_identity():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "eq7"])
    assert exc.value.code == 2


# --- count ------------------------------------------------------------------------


def test_count_csv_golden(capsys):
    assert main(["count", "--family", "rm", "--size", "2"]) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN / "count_rm_2.csv").read_text()
    assert err == ""


def test_count_json_golden(capsys):
    assert main(["count", "--family", "self_dual", "--size", "1",
                 "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    assert out == (GOLDEN / "count_self_dual_1.json").read_text()


def test_count_output_is_byte_stable(capsys):
    main(["count", "--family", "sm", "--size", "3"])
    first = capsys.readouterr().out
    main(["count", "--family", "sm", "--size", "3"])
    assert capsys.readouterr().out == first


def test_count_rejects_unknown_family():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "nope", "--size", "2"])
    assert exc.value.code == 2


# --- map --------------------------------------------------------------------------


def test_map_alpha_golden(tmp_path, capsys):
    path = write_matrix(tmp_path, A5)
    assert main(["map", "--bijection", "alpha", "--input", path]) == 0
    out, _ = capsys.readouterr()
    assert out == format_matrix(S5)


def test_map_beta_trace_golden(tmp_path, capsys):
    path = write_matrix(tmp_path, A6)
    assert main(["map", "--bijection", "beta", "--input", path,
                 "--trace"]) == 0
    out, _ = capsys.readouterr()
    expected = "".join(
        f"{label}:\n{format_matrix(snapshot)}\n"
        for label, snapshot in (
            ("A(0)", A6),
            ("A(1)", A6_STEP1),
            ("A(2)", A6_STEP2),
            ("B", A6_BLOCK),
            ("A'", A6_IMAGE),
        ))
    assert out == expected


def test_map_chain_appends_flag(tmp_path, capsys):
    path = write_matrix(tmp_path, A5)
    assert main(["map", "--bijection", "chain", "--input", path]) == 0
    out, _ = capsys.readouterr()
    assert out == format_matrix(S5_IMAGE) + "flag: 0\n"


def test_map_chain_trace_labels(tmp_path, capsys):
    path = write_matrix(tmp_path, A5)
    assert main(["map", "--bijection", "chain", "--input", path,
                 "--trace"]) == 0
    out, _ = capsys.readouterr()
    assert "alpha:\n" in out
    assert "beta:\n" in out
    assert out.endswith("flag: 0\n")


def test_map_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(format_matrix(A6)))
    assert main(["map", "--bijection", "beta", "--input", "-"]) == 0
    out, _ = capsys.readouterr()
    assert out == format_matrix(A6_IMAGE)


def test_map_output_pipes_back_in(tmp_path, capsys):
    path = write_matrix(tmp_path, A6)
    main(["map", "--bijection", "beta", "--input", path])
    first = capsys.readouterr().out
    back = tmp_path / "image.txt"
    back.write_text(first)
    assert main(["map", "--bijection", "beta_inv", "--input", str(back)]) == 0
    out, _ = capsys.readouterr()
    assert out == format_matrix(A6)


def test_map_predicate_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 1\n0 0\n")
    assert main(["map", "--bijection", "alpha", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("NotSelfDual: ")
    assert "cell (1, 1)" in err


def test_map_alpha_inv_rejects_the_zero_sm_member(tmp_path, capsys):
    # an sm member whose image has a zero row falls back to the direct
    # path, whose check names the first zero line
    path = tmp_path / "zero.txt"
    path.write_text("1\n0\n")
    assert main(["map", "--bijection", "alpha_inv", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "NotExpandable: column 1 zero\n"


def test_map_parse_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "mangled.txt"
    path.write_text("2\n1 x\n0 1\n")
    assert main(["map", "--bijection", "alpha", "--input", str(path)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ")


def test_map_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    assert main(["map", "--bijection", "alpha", "--input", missing]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ")


# --- check ------------------------------------------------------------------------


def test_check_member(tmp_path, capsys):
    path = write_matrix(tmp_path, A6)
    assert main(["check", "--family", "sm", "--input", path]) == 0
    out, _ = capsys.readouterr()
    assert out == (
        "member: yes\n"
        "size: 6\n"
        "reduced_size: 6\n"
        "first_row_sum: 3\n"
        "diag_sum: 2\n"
        "center_col_sum: 1\n"
        "last_col_sum: 1\n"
        "dim: 5\n"
        "dim_parity: odd\n"
    )


def test_check_b_member(tmp_path, capsys):
    path = write_matrix(tmp_path, A6_IMAGE)
    assert main(["check", "--family", "b", "--input", path]) == 0
    out, _ = capsys.readouterr()
    assert "member: yes\n" in out
    assert "first_row_sum: 1\n" in out
    assert "last_col_sum: 3\n" in out


def test_check_non_member_exits_1(tmp_path, capsys):
    path = tmp_path / "gap.txt"
    path.write_text("2\n0 0\n0 1\n")
    assert main(["check", "--family", "rm", "--input", str(path)]) == 1
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "member: no"
    assert lines[1] == "reason: row 1 zero"
    assert "dim: 2" in lines


def test_check_parse_failure_exits_2(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main(["check", "--family", "rm", "--input", str(path)]) == 2


def test_check_oversize_entry_exits_2(tmp_path, capsys):
    # an entry longer than int() converts is malformed text, not a crash
    path = tmp_path / "long.txt"
    path.write_text("1\n" + "7" * 5000 + "\n")
    assert main(["check", "--family", "rm", "--input", str(path)]) == 2
    _, err = capsys.readouterr()
    assert err == f"error: line 2: entry 1 has more than {sys.get_int_max_str_digits()} digits\n"


# --- top level --------------------------------------------------------------------


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_walkthrough_script_runs():
    script = pathlib.Path(__file__).parents[1] / "scripts" / "bijection_walkthrough.py"
    result = subprocess.run([sys.executable, str(script)],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_module_entry_point(tmp_path):
    path = write_matrix(tmp_path, A5)
    result = subprocess.run(
        [sys.executable, "-m", "fishburn", "map", "--bijection", "alpha",
         "--input", path],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert result.stdout == format_matrix(S5)


def test_cold_import_loads_only_what_commands_run():
    # a fresh interpreter importing the command line compiles and runs no
    # more than a count needs: no dataclass machinery, no serializers
    # before a table is printed, no argument parser before a line needs
    # it, no matrix, map or poset layer
    assert not _modules_after("import fishburn.cli") & {
        "dataclasses", "inspect", "json", "csv", "argparse", "gettext", "locale",
        "fishburn.bijections", "fishburn.matrices", "fishburn.posets"}


@pytest.mark.parametrize("command, unused", [
    (["count", "--family", "rm", "--size", "4"],
     {"dataclasses", "fishburn.bijections", "fishburn.matrices", "fishburn.posets"}),
    (["verify", "--identity", "all", "--max-size", "1"],
     {"dataclasses", "fishburn.posets"}),
], ids=["count", "verify"])
def test_cold_run_reads_its_line_without_argparse(command, unused):
    # -X importtime lists every module the run imports, one per line
    src = pathlib.Path(__file__).parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fishburn", *command],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
              if line.startswith("import time:")}
    assert "fishburn.cli" in loaded
    assert not loaded & ({"argparse", "gettext", "locale", "csv"} | unused)


def test_bare_package_import_loads_no_submodule():
    import fishburn
    from fishburn import matrices, records

    assert not {name for name in _modules_after("import fishburn")
                if name.startswith("fishburn.")}
    # each name is the object held under it by the module defining it
    for name in fishburn.__all__:
        value = getattr(fishburn, name)
        home = getattr(value, "__module__", "fishburn.enumeration")  # IDENTITIES
        assert home.startswith("fishburn."), name
        assert vars(sys.modules[home])[name] is value, name
    assert fishburn.Parity is matrices.Parity is records.Parity


def _modules_after(statement):
    """The modules a fresh interpreter holds after running ``statement``."""
    src = pathlib.Path(__file__).parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_poset_names_resolve_on_first_use():
    import fishburn
    from fishburn import posets

    from fishburn import Poset
    assert Poset is posets.Poset
    assert fishburn.canonical_form is posets.canonical_form
    namespace = {}
    exec("from fishburn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fishburn.__all__)
    assert all(namespace[name] is getattr(fishburn, name) for name in fishburn.__all__)
    assert len(fishburn.__all__) == 59
    assert set(fishburn.__all__) <= set(dir(fishburn))
    # looked up on every access, so rebinding a poset function is seen
    assert "canonical_form" not in vars(fishburn)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fishburn.no_such_name


# --- the command-line reader against argparse --------------------------------------

SIZES = ["1", "2", "007", "0", "-3", "\u0663", "1_2", " +2 ", "9" * 5000]
FAMILIES = ["fishburn", "self_dual", "rm", "sm", "b", "nope"]
# each subcommand's options and the values drawn for them, None for a flag;
# "<file>" and "<absent>" stand for a matrix file and a missing one
VOCABULARY = {
    "verify": {"--identity": ["eq1", "eq4", "all", "eq7"], "--max-size": SIZES},
    "count": {"--family": FAMILIES, "--size": SIZES,
              "--format": ["csv", "json", "xml"]},
    "map": {"--bijection": ["alpha", "beta_inv", "chain", "gamma"],
            "--input": ["<file>", "-", "-foo", "<absent>"], "--trace": None},
    "check": {"--family": FAMILIES, "--input": ["<file>", "-", "-foo", "<absent>"]},
}
NOISE = ["--trace", "-h", "--help", "--", "--nope", "verify", "-"]


def _random_line(rng, paths):
    """One command line from VOCABULARY: each option left out, given once
    or repeated, spelled in full, abbreviated or as --opt=value; now and
    then a word of NOISE anywhere, a word dropped, or no subcommand."""
    command = rng.choice(list(VOCABULARY))
    groups = []
    for option, values in VOCABULARY[command].items():
        for _ in range(rng.choice((0, 1, 1, 1, 1, 1, 1, 2))):
            spelled = option
            if rng.random() < 0.1:
                spelled = option[:rng.randint(3, len(option) - 1)]
            if values is None:
                groups.append([spelled])
                continue
            value = rng.choice(values)
            value = paths.get(value, value)
            groups.append([f"{spelled}={value}"] if rng.random() < 0.05
                          else [spelled, value])
    rng.shuffle(groups)
    words = [command] + [word for group in groups for word in group]
    if rng.random() < 0.15:
        words.insert(rng.randint(0, len(words)), rng.choice(NOISE))
    if rng.random() < 0.05:
        del words[rng.randrange(len(words))]
    return words


def _outcome(argv, stdin_text, monkeypatch, capsys):
    """(exit status, stdout, stderr with each timing blanked) of main(argv)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    return status, out, re.sub(r": \d+\.\d{3}s$", ": <t>s", err, flags=re.M)


def test_reader_agrees_with_argparse(tmp_path, monkeypatch, capsys):
    # the reader must return exactly what argparse returns, or decline; and
    # main must answer every line alike with the reader declining them all.
    # The identity checker is replaced, so a line asking for size 7 is cheap
    assert {command: set(options) for command, (_, options) in cli._COMMANDS.items()} \
        == {command: set(options) for command, options in VOCABULARY.items()}
    for _, options in cli._COMMANDS.values():
        for spec in options.values():
            assert spec.get("type", cli._positive_int) is cli._positive_int
            assert spec.get("action", "store_true") == "store_true"
            assert spec.get("required") or "default" in spec
    monkeypatch.setattr(cli, "verify_identities", lambda names, n: [
        IdentityReport(name, n, n < 3, f"checked {name} at {n}") for name in names])
    paths = {"<file>": write_matrix(tmp_path, A5), "<absent>": str(tmp_path / "absent")}
    rng = random.Random(23)
    lines = [_random_line(rng, paths) for _ in range(1000)]
    read = cli._read_line
    accepted = dict.fromkeys(VOCABULARY, 0)
    for argv in lines:
        args = read(argv)
        if args is not None:
            assert args == vars(cli.build_parser().parse_args(argv)), argv
            accepted[args["command"]] += 1
        stdin_text = format_matrix(A6)
        with_reader = _outcome(argv, stdin_text, monkeypatch, capsys)
        monkeypatch.setattr(cli, "_read_line", lambda argv: None)
        assert _outcome(argv, stdin_text, monkeypatch, capsys) == with_reader, argv
        monkeypatch.setattr(cli, "_read_line", read)
    print("lines the reader accepted, by subcommand:", accepted)
    assert all(accepted.values()), accepted
