"""CLI behavior: exit codes, report files, determinism, parse errors."""

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
    path = str(tmp_path / "search.ckpt")
    cond = ("cond", "--spec", "pi1", "--n", "2", "--q", "2", "--checkpoint", path)
    for command, flag in (
            (("experiment", "--n", "2", "--q", "2", "--count", "-1"), "--count"),
            (cond + ("--checkpoint-every", "-5"), "--checkpoint-every")):
        assert run(*command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: invalid configuration: {flag} "
                                f"must be nonnegative, got {command[-1]}\n")
    # 0 still means no periodic writes, only the final one
    assert run(*cond, "--checkpoint-every", "0") == 0
    assert "condd=3" in capsys.readouterr().out


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
