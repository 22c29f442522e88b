import csv
import json

import pytest

from jhp_lab import cli, grothendieck, monoid, repkit, typea
from jhp_lab.symgroup import parse_orientation, parse_perm


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTables:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "table1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "w,supp,inv,Binv,nsimp,jhp"
        assert len(lines) == 15
        false_rows = [l for l in lines[1:] if l.endswith("false")]
        assert len(false_rows) == 1 and false_rows[0].startswith("3412,")

    def test_table2(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "table2")
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert [int(l.split(",")[-2]) for l in lines] == [
            4, 4, 5, 5, 4, 4, 5, 5, 4, 6, 4, 5, 4, 4
        ]

    def test_census(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "census",
                           "--quiver", "1<2>3<4")
        assert code == 0 and out == "42,34,8\n"

    def test_census_single_vertex(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "census", "--quiver", "1")
        assert code == 0 and out == "2,2,1\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        code, _, _ = run(capsys, "tables", "--which", "table1", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("w,supp")

    def test_io_failure(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "tables", "--which", "table1",
            "--out", str(tmp_path / "no" / "such" / "dir.csv"),
        )
        assert code == 2 and "error" in err

    def test_table2_rank10_quotes_w(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "table2",
                           "--quiver", "1<2>3<4>5<6>7<8>9")
        assert code == 0
        header, *rows = list(csv.reader(out.splitlines()))
        assert header == ["w", "supp", "inv", "Binv", "nsimp", "jhp"]
        assert len(rows) == 4862  # Catalan(9)
        assert all(len(r) == 6 for r in rows)
        assert all(len(parse_perm(r[0])) == 10 for r in rows)

    def test_deterministic(self, capsys):
        a = run(capsys, "tables", "--which", "table2")
        b = run(capsys, "tables", "--which", "table2")
        assert a == b


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--quiver", "1>2<3", "--w", "3412", "--format", "json"),
            ("analyze", "--quiver", "1>2<3"),
            ("no-such-command",),
        ],
        ids=["unknown-flag", "missing-w", "unknown-subcommand"],
    )
    def test_usage_error_exit3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "usage:" in err

    def test_help_exit0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: jhp-lab")


class TestAnalyze:
    def test_f3412(self, capsys):
        code, out, _ = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "3412")
        assert code == 0
        data = json.loads(out)
        assert data["jhp"] is False
        assert len(data["atoms"]) == 4
        assert data["k0"] == {"rank": 3, "torsion": []}

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "1234")
        data = json.loads(out)
        assert code == 0 and data["jhp"] is True and data["atoms"] == []
        assert data["k0"]["rank"] == 0

    def test_not_sortable_exit3(self, capsys):
        code, _, err = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "4231")
        assert code == 3 and "sortable" in err

    def test_bad_permutation_exit3(self, capsys):
        code, _, _ = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "1224")
        assert code == 3

    @pytest.mark.parametrize(
        "quiver, w, bad",
        [
            ("1<2>3junk", "4321", "1<2>3junk"),
            ("a1<2", "321", "a1<2"),
            ("1<<2", "321", "1<<2"),
            ("1<2<3", "1,2,,3", "1,2,,3"),
        ],
    )
    def test_malformed_input_exit3_names_it(self, capsys, quiver, w, bad):
        code, out, err = run(capsys, "analyze", "--quiver", quiver, "--w", w)
        assert code == 3 and out == "" and repr(bad) in err, err

    def test_bad_dimension_bound_exit3(self, capsys, monkeypatch):
        for value in ("abc", "0", "-2"):
            monkeypatch.setenv("JHP_LAB_BOUND", value)
            code, _, err = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "4321")
            assert code == 3 and "JHP_LAB_BOUND" in err, value

    def test_dimension_bound_exceeded_names_knob(self, capsys, monkeypatch):
        monkeypatch.setenv("JHP_LAB_BOUND", "4")
        code, _, err = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "4321",
                           "--bound", "6")
        assert code == 4 and "JHP_LAB_BOUND" in err

    def test_a10_w0_report_needs_no_word_enumeration(self, capsys, monkeypatch):
        # the verdicts on a free class build no strata, so the report of
        # w0 over A10 stays within every enumeration limit
        monkeypatch.setenv("JHP_LAB_BOUND", "10")
        w0 = "11,10,9,8,7,6,5,4,3,2,1"
        code, out, err = run(capsys, "analyze", "--quiver", "1<2>3<4>5>6>7>8>9>10",
                             "--w", w0, "--bound", "10")
        data = json.loads(out)
        assert code == 0 and not err
        assert data["jhp"] is True and data["k0"] == {"rank": 10, "torsion": []}
        assert data["cancellative"] == {"status": "none_up_to_bound", "bound": 10}

    def test_bound_below_generator_grade_exit3(self, capsys):
        # F(3412) has a generator of grade 3: a lower harvest bound cannot
        # give exact atoms
        for bound in ("-1", "0", "1", "2"):
            code, out, err = run(capsys, "analyze", "--quiver", "1>2<3",
                                 "--w", "3412", "--bound", bound)
            assert code == 3 and out == "", bound
            assert "--bound" in err and "at least 3" in err, bound

    def test_bound_below_default_stop_exit3(self, capsys):
        # the default harvest of F(3412) stops at the certified bound 4;
        # at bound 3 the lattice misses a relation and JHP would read true
        code, out, err = run(capsys, "analyze", "--quiver", "1>2<3",
                             "--w", "3412", "--bound", "3")
        assert code == 3 and out == ""
        assert "--bound" in err and "at least 4" in err

    @pytest.mark.parametrize(
        "error", [repkit.NegativeMultiplicity, repkit.SingularSystem]
    )
    def test_internal_error_exit5(self, capsys, monkeypatch, error):
        def broken(src):
            raise error("planted")

        monkeypatch.setattr(grothendieck, "report", broken)
        code, _, err = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "3412")
        assert code == 5 and err == "internal error: planted\n"

    def test_middle_outside_the_class_exit5(self, capsys, monkeypatch):
        # F(3412) is extension-closed and has no M[1,2): a middle there is
        # an internal error, with no other harvest to fall back on
        outside = typea.IntervalModule(1, 2, parse_orientation("1>2<3"))
        monkeypatch.setattr(typea, "extension_middle", lambda X, Z: (outside,))
        code, out, err = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "3412")
        assert code == 5 and out == ""
        assert err.startswith("internal error: ") and "M[1,2)" in err

    def test_word_cap_exceeded_names_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(monoid, "WORD_CAP", 2)
        code, _, err = run(capsys, "analyze", "--quiver", "1>2<3", "--w", "3412")
        assert code == 4 and "WORD_CAP = 2" in err

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "cayley.dot"
        code, _, _ = run(
            capsys, "analyze", "--quiver", "1>2<3", "--w", "3142",
            "--out", str(tmp_path / "r.json"), "--dot", str(dot),
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph cayley {") and "->" in text


class TestRegress:
    def test_single_item(self, capsys):
        code, out, _ = run(capsys, "regress", "--only", "nonulp1")
        assert code == 0
        assert out.startswith("PASS nonulp1")
        assert "lengths 2 and 3" in out

    def test_unknown_item(self, capsys):
        code, out, _ = run(capsys, "regress", "--only", "no-such-item")
        assert code == 3

    def test_corrupted_spec_fails_named_item(self, tmp_path, capsys):
        bad = tmp_path / "loop.pres"
        bad.write_text(
            "generator P1 grade 2\ngenerator P2 grade 3\n"
            "generator I1 grade 4\ngenerator M grade 3\ncarrier all\n"
            "relation M + P2 = P1 + I1\n"
        )
        code, out, _ = run(capsys, "regress", "--only", "loop-algebra",
                           "--spec", str(bad))
        assert code == 1
        assert out.startswith("FAIL loop-algebra")

    def test_compex_items(self, capsys):
        code, out, _ = run(capsys, "regress", "--only", "compex(1,1)")
        assert code == 0 and out.startswith("PASS compex(1,1)")
