"""CLI behavior: exit codes, report files, determinism, parse errors."""

import hashlib
import json

import pytest

from condlab.boxes import QBox, image_of_box, intersection_count
from condlab.cli import load_box_file, main, write_box_file
from condlab.condenser import decompose
from condlab.errors import TableFormatError
from condlab.perms import PermutationSpec


def run(*argv):
    return main(list(argv))


def test_field_selfcheck(capsys):
    assert run("field", "selfcheck", "--n", "3") == 0
    out = capsys.readouterr().out
    assert "ok=yes" in out and "n=3" in out


def test_perm_verify_and_witness(capsys):
    assert run("perm", "verify", "--spec", "pi1", "--n", "2", "--w", "3") == 0
    assert "bijective=yes" in capsys.readouterr().out
    assert run("perm", "verify", "--spec", "bothmix", "--n", "2", "--w", "3") == 0
    assert "bijective=no witness=" in capsys.readouterr().out


def test_perm_eval_invert_round_trip(capsys):
    assert run("perm", "eval", "--spec", "pi3", "--n", "3", "--w", "3",
               "--point", "5,3,6") == 0
    forward = capsys.readouterr().out.strip()
    assert run("perm", "invert", "--spec", "pi3", "--n", "3", "--w", "3",
               "--point", forward) == 0
    assert capsys.readouterr().out.strip() == "5,3,6"


@pytest.mark.parametrize("word", ["0x1", "+2", "1_0", "\u0661", ""])
def test_point_words_read_hex_digits_only(word, capsys):
    for command in ("eval", "invert"):
        assert run("perm", command, "--spec", "pi1", "--n", "4",
                   "--point", f"1,{word},3") == 1
        assert capsys.readouterr().err == "error: point needs 3 comma-separated hex words\n"


def test_point_words_take_either_case(capsys):
    for point in ("A,b,3", "a,B,3"):
        assert run("perm", "eval", "--spec", "pi1", "--n", "4", "--point", point) == 0
        assert capsys.readouterr().out == "a,b,1\n"


def test_perm_export_table_round_trip(tmp_path, capsys):
    path = tmp_path / "perm.tbl"
    assert run("perm", "export-table", "--spec", "random", "--seed", "9",
               "--n", "2", "--w", "2", "--out", str(path)) == 0
    capsys.readouterr()
    assert run("perm", "verify", "--spec", "table", "--table-file", str(path),
               "--n", "2", "--w", "2") == 0
    assert "bijective=yes" in capsys.readouterr().out


def test_table_spec_takes_its_shape_from_the_file(tmp_path, capsys):
    path = tmp_path / "perm.tbl"
    assert run("perm", "export-table", "--spec", "random", "--seed", "9",
               "--n", "2", "--w", "3", "--out", str(path)) == 0
    capsys.readouterr()
    table = ("--spec", "table", "--table-file", str(path))
    for command in (("perm", "verify") + table,
                    ("cond",) + table + ("--q", "2", "--mode", "exact")):
        outputs = []
        for shape in ((), ("--n", "2", "--w", "3"), ("--n", "2"), ("--w", "3")):
            assert run(*command, *shape) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1 and outputs[0]
        assert run(*command, "--n", "3") == 1
        assert "flags say (n=3)" in capsys.readouterr().err
        assert run(*command, "--n", "2", "--w", "2") == 1
        assert "flags say (n=2, w=2)" in capsys.readouterr().err


def test_missing_n_is_an_aggregated_usage_error(capsys):
    assert run("cond", "--spec", "pi1", "--q", "0") == 1
    err = capsys.readouterr().err
    assert "--n is required for --spec pi1" in err and "--q must be at least 1" in err
    assert err.count("error:") == 1


def test_cond_exact_report_round_trips(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run("cond", "--spec", "pi1", "--n", "2", "--w", "3", "--q", "2",
               "--mode", "exact", "--out", str(out))
    assert code == 0
    line = capsys.readouterr().out
    assert "condd=3 mode=exact witnesses=yes" in line
    payload = json.loads(out.read_text())
    assert payload["max_count"] == 8
    assert payload["exhausted"] is True
    # replaying the stored witnesses reproduces the headline number
    spec = PermutationSpec.pi1(2)
    ubox = QBox(tuple(tuple(s) for s in payload["witness_u"]), payload["n"])
    vbox = QBox(tuple(tuple(s) for s in payload["witness_v"]), payload["n"])
    assert intersection_count(image_of_box(spec, ubox), vbox) == payload["max_count"]


def test_cond_identity_control(capsys):
    assert run("cond", "--spec", "identity", "--n", "2", "--w", "2",
               "--q", "2", "--mode", "exact") == 0
    assert "condd=2 mode=exact" in capsys.readouterr().out


def test_cond_heuristic_mode(capsys):
    assert run("cond", "--spec", "pi1", "--n", "2", "--w", "3", "--q", "2",
               "--mode", "heuristic", "--budget", "30", "--seed", "4") == 0
    assert "mode=heuristic" in capsys.readouterr().out


def test_cond_budget_refusal_exit_2(capsys):
    code = run("cond", "--spec", "pi1", "--n", "7", "--w", "3", "--q", "16",
               "--mode", "exact")
    assert code == 2
    err = capsys.readouterr().err
    assert "budget refused" in err and "refused count" in err


def test_usage_errors_aggregate_exit_1(capsys):
    code = run("cond", "--spec", "pi1", "--n", "70", "--w", "0", "--q", "0",
               "--mode", "exact", "--threads", "0")
    assert code == 1
    err = capsys.readouterr().err
    # all four issues land in one aggregated message
    assert "--n must be in 1..64" in err
    assert "--w must be at least 1" in err
    assert "--threads must be at least 1, got 0" in err
    assert "--q must be at least 1" in err
    assert err.count("error:") == 1


def test_missing_q_is_a_usage_error(capsys):
    assert run("cond", "--spec", "pi1", "--n", "2", "--w", "3") == 1
    assert "--q or --alpha-n" in capsys.readouterr().err


def test_alpha_n_accepted_when_integral(capsys):
    assert run("cond", "--spec", "identity", "--n", "2", "--w", "2",
               "--alpha-n", "1.0") == 0
    assert "condd=2" in capsys.readouterr().out
    assert run("cond", "--spec", "identity", "--n", "2", "--w", "2",
               "--alpha-n", "0.5") == 1


def test_alpha_n_past_the_float_range_is_a_usage_error(capsys):
    assert run("cond", "--spec", "pi1", "--n", "2", "--alpha-n", "2000") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid configuration: --alpha-n 2000.0 gives "
                            "a side size 2^2000.0 out of range\n")


def test_alpha_n_with_a_fractional_side_past_2_to_the_52_is_a_usage_error(capsys):
    assert run("cond", "--spec", "pi1", "--n", "64", "--alpha-n", "53.5",
               "--mode", "exact") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid configuration: --alpha-n 53.5 gives "
                            "a non-integer side size 2^53.5\n")


def test_missing_input_file_is_an_error_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    for command in (("decompose", "--spec", "pi1", "--n", "2", "--q", "2",
                     "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1",
                     "--box-file", missing),
                    ("perm", "verify", "--spec", "table", "--table-file", missing)):
        assert run(*command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_negative_counts_are_usage_errors(tmp_path, capsys):
    assert run("experiment", "--n", "2", "--q", "2", "--count", "-1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid configuration: --count must be nonnegative, got -1\n"
    # the checkpoint interval and the whole-domain budget are not options
    path = tmp_path / "search.ckpt"
    for argv in (("cond", "--spec", "pi1", "--n", "2", "--q", "2", "--checkpoint", str(path),
                  "--checkpoint-every", "5"),
                 ("perm", "verify", "--spec", "pi1", "--n", "2", "--budget-bits", "8")):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    assert not path.exists()


def test_a_checkpointed_scan_shorter_than_the_interval_writes_once_at_the_end(
        tmp_path, monkeypatch, capsys):
    from condlab import conductance

    # random_table(3, 2, 3) at q=2 walks 36 prefixes and searches 59 boxes
    # in far less than CHECKPOINT_SECONDS, so only the end is written
    ranks, real_write = [], conductance.write_checkpoint
    monkeypatch.setattr(conductance, "write_checkpoint",
                        lambda *args: ranks.append(args[3]) or real_write(*args))
    path, out = tmp_path / "search.ckpt", tmp_path / "report.json"
    assert run("cond", "--spec", "random", "--seed", "3", "--n", "2", "--w", "3", "--q", "2",
               "--checkpoint", str(path), "--out", str(out)) == 0
    assert ranks == [216] == [json.loads(out.read_text())["boxes_examined"]]
    assert path.read_text().splitlines()[-1] == "boxes_examined=216"
    assert sorted(tmp_path.iterdir()) == [out, path]


def test_box_searches_on_a_non_bijective_spec_exit_1(capsys):
    errors = []
    for command in (("cond", "--spec", "bothmix", "--n", "2", "--q", "2", "--mode", "exact"),
                    ("cond", "--spec", "bothmix", "--n", "2", "--q", "2",
                     "--mode", "heuristic", "--budget", "50"),
                    ("condenser-profile", "--spec", "bothmix", "--n", "2", "--q", "2",
                     "--eps1", "0.25", "--eps2", "0.25", "--trials", "20")):
        assert run(*command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == ("error: box inputs 0x11 and 0x14 both map to 0x15; "
                         "the box searches need a bijection\n")
    assert all(e.startswith("error: box inputs ")
               and e.endswith("; the box searches need a bijection\n") for e in errors)


def test_decompose_matches_library(tmp_path, capsys):
    out = tmp_path / "dump.json"
    code = run("decompose", "--spec", "pi1", "--n", "2", "--w", "3", "--q", "2",
               "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1",
               "--box-seed", "5", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["runs"]) == 1
    rec = payload["runs"][0]
    box = QBox(tuple(tuple(s) for s in rec["box"]), 2)
    dec = decompose(image_of_box(PermutationSpec.pi1(2), box), 1.0, 0.25, 0.25)
    assert rec["decomposition"] == dec.to_json_dict()
    names = {c["name"]: c for c in rec["bounds"]["checks"]}
    assert names["r1_size"]["holds"] is True


def test_decompose_zero_trials(capsys):
    assert run("decompose", "--spec", "pi1", "--n", "2", "--w", "3", "--q", "2",
               "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1",
               "--box-seed", "1", "--trials", "0") == 0
    assert "decomposed 0 box(es)" in capsys.readouterr().out


def test_decompose_negative_trials_is_a_usage_error(capsys):
    assert run("decompose", "--spec", "pi1", "--n", "2", "--q", "2",
               "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1",
               "--trials", "-2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid configuration: "
                            "--trials must be nonnegative, got -2\n")


def test_table_spec_side_size_is_checked_against_the_file(tmp_path, capsys):
    path = tmp_path / "t.tbl"
    assert run("perm", "export-table", "--spec", "pi1", "--n", "2", "--out", str(path)) == 0
    capsys.readouterr()
    table = ("--spec", "table", "--table-file", str(path), "--q", "8",
             "--eps1", "0.25", "--eps2", "0.25")
    for command in (("decompose",) + table + ("--eps3", "0.1"),
                    ("condenser-profile",) + table + ("--trials", "2")):
        assert run(*command) == 1
        assert capsys.readouterr().err == (
            "error: invalid configuration: --q 8 exceeds the alphabet size 2^2\n"
        )


def test_box_file_round_trip_and_duplicate_detection(tmp_path, capsys):
    box = QBox(((0, 3), (1, 2), (0, 1)), 2)
    path = tmp_path / "box.txt"
    write_box_file(box, path)
    assert load_box_file(path) == box
    code = run("decompose", "--spec", "pi1", "--n", "2", "--w", "3", "--q", "2",
               "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1",
               "--box-file", str(path))
    assert code == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("condlab-box v1 n=2 w=3 q=2\n0 3\n1 1\n0 1\n")
    with pytest.raises(TableFormatError) as exc:
        load_box_file(bad)
    assert exc.value.line == 3
    code = run("decompose", "--spec", "pi1", "--n", "2", "--w", "3", "--q", "2",
               "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1",
               "--box-file", str(bad))
    assert code == 1
    assert "line 3" in capsys.readouterr().err


DECOMPOSE_PI1 = ("decompose", "--spec", "pi1", "--n", "2", "--q", "2",
                 "--eps1", "0.25", "--eps2", "0.25", "--eps3", "0.1")


@pytest.mark.parametrize("fields", ["n=-1 w=3 q=1", "n=0 w=3 q=2", "n=2 w=0 q=2",
                                    "n=2 w=3 q=0", "n=65 w=1 q=1", f"n={10 ** 30} w=1 q=1",
                                    "n=x w=3 q=2", "w=3 n=2 q=2", "n=+2 w=0_3 q=2",
                                    "n=\u0662 w=3 q=2"])
def test_box_headers_need_positive_fields_and_n_at_most_64(fields, tmp_path, capsys):
    path = tmp_path / "box.txt"
    path.write_text(f"condlab-box v1 {fields}\n0\n")
    message = f"line 1: bad header fields in 'condlab-box v1 {fields}'"
    with pytest.raises(TableFormatError) as exc:
        load_box_file(path)
    assert (str(exc.value), exc.value.line) == (message, 1)
    assert run(*DECOMPOSE_PI1, "--box-file", str(path)) == 1
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("side", ["0x1 2", "+0 1", "0 1_1", "0 -1"])
def test_box_sides_read_hex_digits_only(side, tmp_path):
    path = tmp_path / "box.txt"
    path.write_text(f"condlab-box v1 n=4 w=2 q=2\n0 1\n{side}\n")
    with pytest.raises(TableFormatError) as exc:
        load_box_file(path)
    assert str(exc.value) == f"line 3: not hex values: {side!r}"


def test_box_files_keep_their_accepted_variants(tmp_path):
    path = tmp_path / "box.txt"
    path.write_bytes(b"condlab-box v1 n=4 w=2 q=2\r\n A 0 \r\n\r\n1 f\r\n")
    assert load_box_file(path) == QBox(((0, 10), (1, 15)), 4)
    path.write_text("condlab-box v1 n=64 w=1 q=2\nffffffffffffffff 0\n")
    assert load_box_file(path) == QBox(((0, 2 ** 64 - 1),), 64)


def test_condenser_profile_cli(tmp_path, capsys):
    out = tmp_path / "profile.json"
    assert run("condenser-profile", "--spec", "pi1", "--n", "2", "--w", "3",
               "--q", "2", "--eps1", "0.25", "--eps2", "0.25",
               "--trials", "4", "--seed", "3", "--out", str(out)) == 0
    assert "trials=4" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["summary"]["trials"] == 4
    assert run("condenser-profile", "--spec", "pi1", "--n", "2", "--w", "3",
               "--q", "2", "--eps1", "0.25", "--eps2", "0.25",
               "--trials", "0", "--seed", "3") == 0
    assert "trials=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv, digest", [
    (("decompose", "--spec", "pi1", "--n", "5", "--q", "4", "--eps1", "0.25",
      "--eps2", "0.25", "--eps3", "0.1", "--trials", "2", "--box-seed", "1"),
     "bece0389c13db0c3a73112b5563b44b0e130813d0eb859a92e38b71a97244c7c"),
    # this shape keeps parts and meets its targets
    (("condenser-profile", "--spec", "pi1", "--n", "5", "--q", "8", "--eps1", "0.25",
      "--eps2", "0.25", "--trials", "4", "--seed", "2"),
     "e9849e3bf4222d9447640945e6c99e0720359ba007b6a9b94338c6f606038dfb"),
])
def test_condenser_reports_keep_their_bytes(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    assert run(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_bounds_cli(capsys):
    assert run("bounds", "--n", "2", "--w", "3", "--q", "4",
               "--eps1", "0.5", "--eps2", "0.0", "--c", "0.25") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["condenser_bound"] == 2.5
    assert payload["repetition_bound"] == 2.75


def test_experiment_deterministic_and_in_range(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["experiment", "--n", "2", "--w-list", "2", "--q", "2",
            "--count", "4", "--seed", "17"]
    assert run(*base, "--out", str(a)) == 0
    assert run(*base, "--threads", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    control = [r for r in rows if r["row"] == "control"]
    assert len(control) == 1 and float(control[0]["condd"]) == 2.0
    for r in rows:
        if r["row"] in ("perm", "control"):
            assert 1.0 <= float(r["condd"]) <= 2.0
    summary = [r for r in rows if r["row"] == "summary"]
    assert len(summary) == 1
    assert float(summary[0]["min_condd"]) <= float(summary[0]["max_condd"])


def test_unknown_arguments_exit_1(capsys):
    assert run("cond", "--nonsense") == 1
    assert run("no-such-command") == 1


def test_condlab_threads_env_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("CONDLAB_THREADS", "4")
    assert run("cond", "--spec", "pi1", "--n", "2", "--w", "3", "--q", "2",
               "--mode", "exact") == 0
    assert "condd=3" in capsys.readouterr().out
    monkeypatch.setenv("CONDLAB_THREADS", "not-a-number")
    assert run("cond", "--spec", "identity", "--n", "2", "--w", "2",
               "--q", "2") == 0  # the variable is never read


def test_composite_degree_note_on_stderr(capsys):
    assert run("perm", "verify", "--spec", "pi1", "--n", "4", "--w", "3") == 0
    captured = capsys.readouterr()
    assert "assume a prime degree" in captured.err
    assert run("perm", "verify", "--spec", "pi1", "--n", "3", "--w", "3") == 0
    assert "prime" not in capsys.readouterr().err


def test_perm_verify_out_json(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run("perm", "verify", "--spec", "bothmix", "--n", "2", "--w", "3",
               "--out", str(out)) == 0
    assert capsys.readouterr().out == "bijective=no witness=0x11,0x14 checked=21\n"
    payload = json.loads(out.read_text())
    assert list(payload) == ["bijective", "checked", "collision", "n", "w"]
    assert payload == {"bijective": False, "checked": 21, "collision": [0x11, 0x14],
                       "n": 2, "w": 3}
    assert run("perm", "verify", "--spec", "pi1", "--n", "2", "--w", "3",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["collision"] is None


def test_bounds_out_file_is_the_printed_json(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert run("bounds", "--n", "3", "--w", "3", "--alpha-n", "1", "--eps1", "0.5",
               "--eps2", "0.0625", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert json.loads(printed)["q"] == 2


def test_experiment_stdout_is_the_out_file(tmp_path, capsys):
    out = tmp_path / "experiment.csv"
    base = ["experiment", "--n", "2", "--w-list", "2,3", "--q", "2", "--count", "2",
            "--seed", "4"]
    assert run(*base) == 0
    printed = capsys.readouterr().out
    assert run(*base, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_an_assertion_in_a_handler_exits_3(monkeypatch, capsys):
    from condlab import conductance

    def broken(*args, **kw):
        raise AssertionError("sheet out of range")

    monkeypatch.setattr(conductance, "bound_sheet", broken)
    assert run("bounds", "--n", "2", "--w", "3", "--q", "2") == 3
    assert capsys.readouterr().err == "internal invariant violation: sheet out of range\n"


@pytest.mark.parametrize("sides, message", [
    ("0 1\n0 1 2\n0 1\n", "line 3: side has 3 values, expected 2"),
    ("0 1\n0 4\n0 1\n", "line 3: side value out of range"),
    ("0 1\n0 1\n", "expected 3 sides, found 2"),
], ids=["count", "range", "missing"])
def test_bad_box_files_are_parse_errors(sides, message, tmp_path, capsys):
    path = tmp_path / "box.txt"
    path.write_text("condlab-box v1 n=2 w=3 q=2\n" + sides)
    assert run(*DECOMPOSE_PI1, "--box-file", str(path)) == 1
    assert capsys.readouterr().err == f"parse error: {message}\n"


PI1_Q2 = ("--spec", "pi1", "--n", "2", "--q", "2")


@pytest.mark.parametrize("argv, message", [
    (("cond", *PI1_Q2, "--alpha-n", "1"), "--q and --alpha-n are mutually exclusive"),
    (("decompose", *PI1_Q2, "--eps2", "0.25", "--eps3", "0.1"), "--eps1 is required"),
    (("decompose", *PI1_Q2, "--eps1", "-0.5", "--eps2", "0.25", "--eps3", "0.1"),
     "--eps1 must be nonnegative"),
    (("cond", "--spec", "table", "--q", "2"), "--table-file is required for table specs"),
    (("cond", "--spec", "piw", "--n", "2", "--w", "2", "--q", "2"),
     "--spec piw requires --w of at least 3"),
    (("cond", "--spec", "identity", "--n", "2", "--q", "2"),
     "--w is required for --spec identity"),
    (("bounds", "--n", "2", "--q", "2"), "--w is required"),
    (("cond", "--spec", "pi1", "--n", "2", "--q", "5"), "--q 5 exceeds the alphabet size 2^2"),
], ids=["q-and-alpha-n", "no-eps1", "negative-eps1", "table-without-file", "piw-w2",
        "identity-without-w", "bounds-without-w", "q-over-alphabet"])
def test_configuration_refusals_are_one_error_line(argv, message, capsys):
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", f"error: invalid configuration: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("decompose", *PI1_Q2, "--eps1", "0.25", "--eps2", "0.25", "--eps3", "nan",
      "--box-seed", "5"), "invalid configuration: --eps3 must be nonnegative"),
    (("bounds", "--n", "16", "--w", "3", "--q", "4", "--eps1", "nan", "--eps2", "0.25"),
     "eps1 and eps2 must be nonnegative"),
    (("bounds", "--n", "16", "--w", "3", "--q", "4", "--c", "nan"),
     "c must be a number, got nan"),
    (("experiment", "--n", "2", "--q", "2", "--w-list", "2", "--eps2", "nan"),
     "eps1 and eps2 must be nonnegative"),
], ids=["decompose-eps3", "bounds-eps1", "bounds-c", "experiment-eps2"])
def test_a_nan_parameter_is_refused_before_any_output(argv, message, tmp_path, capsys):
    # nan passes a "< 0" check; written out it is not JSON, and it reads
    # as a failed precondition
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_a_box_file_of_another_shape_is_refused(tmp_path, capsys):
    path = tmp_path / "box.txt"
    write_box_file(QBox(((0, 1, 2),) * 3, 2), path)
    assert run(*DECOMPOSE_PI1, "--box-file", str(path)) == 1
    assert capsys.readouterr() == ("", "error: box file shape (n=2, w=3, q=3) does not match "
                                       "the requested parameters\n")
