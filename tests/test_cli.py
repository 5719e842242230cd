import os
import subprocess
import sys
from pathlib import Path

import pytest

from maxcsp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tiny_cnf(tmp_path, capsys):
    path = tmp_path / "tiny.cnf"
    code, out, _ = run_cli(capsys, "gen", "--n", "6", "--m", "12", "--k", "3", "--seed", "1")
    assert code == 0
    path.write_text(out, encoding="utf-8")
    return str(path)


class TestGen:
    def test_deterministic(self, capsys):
        a = run_cli(capsys, "gen", "--n", "5", "--m", "3", "--k", "3", "--seed", "1")
        b = run_cli(capsys, "gen", "--n", "5", "--m", "3", "--k", "3", "--seed", "1")
        assert a == b
        assert a[0] == 0

    def test_output_parses(self, capsys):
        from maxcsp import parse_cnf

        code, out, _ = run_cli(capsys, "gen", "--n", "7", "--m", "9", "--k", "4", "--seed", "2")
        assert code == 0
        inst, _ = parse_cnf(out)
        assert inst.num_constraints == 9
        assert all(c.arity == 4 for c in inst.constraints)

    def test_k_above_n(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "2", "--m", "1", "--k", "3", "--seed", "0")
        assert code == 4
        assert "error" in err

    @pytest.mark.parametrize(
        "n, m, k, seed",
        [("5", "3", "3", "-1"), ("5", "3", "3", str(2**64)), ("30", "3", "21", "0")],
        ids=["negative-seed", "seed-2^64", "k-above-max-arity"],
    )
    def test_seed_and_k_out_of_range(self, capsys, n, m, k, seed):
        code, out, err = run_cli(capsys, "gen", "--n", n, "--m", m, "--k", k, "--seed", seed)
        assert code == 4
        assert out == "" and err.startswith("error: ")


class TestSolve:
    def test_report_fields_and_determinism(self, capsys, tiny_cnf):
        a = run_cli(capsys, "solve", tiny_cnf, "--eps", "0.1", "--seed", "7")
        b = run_cli(capsys, "solve", tiny_cnf, "--eps", "0.1", "--seed", "7")
        assert a == b
        code, out, _ = a
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["n"] == "6"
        assert report["m"] == "12"
        assert report["guarantee"] == "additive"
        assert set(report["assignment"]) <= {"0", "1"}
        assert len(report["assignment"]) == 6
        assert int(report["iterations"]) == int(report["iterations_budget"])

    def test_parallelism_does_not_change_output(self, capsys, tiny_cnf):
        outs = set()
        for p in ("1", "2", "8"):
            code, out, _ = run_cli(
                capsys, "solve", tiny_cnf, "--eps", "0.1", "--seed", "7", "--parallelism", p
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    @pytest.mark.parametrize(
        "gen_args, solve_args, expected",
        [
            (
                ("--n", "10", "--m", "30", "--k", "3", "--seed", "4"),
                ("--eps", "0.1", "--seed", "7"),
                "n=10\n"
                "m=30\n"
                "w=30.0\n"
                "ell=90.0\n"
                "eps=0.1\n"
                "eps_eff=0.1\n"
                "log2_count=0.0\n"
                "log2_budget=12.788310503700918\n"
                "iterations_budget=7074\n"
                "iterations=7074\n"
                "clamped=0\n"
                "best_weight=30.0\n"
                "guarantee=additive\n"
                "fail_prob=0.001\n"
                "achieved_fail_prob=0.000999552254250196\n"
                "seed=7\n"
                "assignment=1001010011\n",
            ),
            (
                # 130 lane words per 64 samples; the budget crosses a chunk boundary
                ("--n", "130", "--m", "400", "--k", "3", "--seed", "1"),
                ("--eps", "0.05", "--seed", "3", "--max-iters", "66000", "--parallelism", "2"),
                "n=130\n"
                "m=400\n"
                "w=400.0\n"
                "ell=1200.0\n"
                "eps=0.05\n"
                "eps_eff=0.05\n"
                "log2_count=11.967946705812707\n"
                "log2_budget=16.01017840402054\n"
                "iterations_budget=66000\n"
                "iterations=66000\n"
                "clamped=1\n"
                "best_weight=376.0\n"
                "guarantee=additive\n"
                "fail_prob=0.001\n"
                "achieved_fail_prob=1.0\n"
                "seed=3\n"
                "assignment=1100011010011101101101100100110000001001001010111000110101"
                "111000110000111001010010111100101001011000010101111011000111000000111011\n",
            ),
        ],
        ids=["n10", "n130"],
    )
    def test_golden_output(self, tmp_path, capsys, gen_args, solve_args, expected):
        # pins the (seed, index) -> bits mapping and the kernel across versions
        code, text, _ = run_cli(capsys, "gen", *gen_args)
        assert code == 0
        path = tmp_path / "golden.cnf"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "solve", str(path), *solve_args) == (0, expected, "")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 5 0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(bad), "--eps", "0.1")
        assert code == 2
        assert "line 2" in err

    def test_hard_clause_exit_2(self, tmp_path, capsys):
        hard = tmp_path / "hard.wcnf"
        hard.write_text("p wcnf 2 1 10\n10 1 2 0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(hard), "--eps", "0.1")
        assert code == 2
        assert "hard constraints out of scope" in err

    def test_nan_top_exit_2(self, tmp_path, capsys):
        # with a NaN top no weight would equal it, so the hard clause would pass
        bad = tmp_path / "nan.wcnf"
        bad.write_text("p wcnf 3 2 nan\n5 1 2 0\n1 -3 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(bad), "--eps", "0.1")
        assert (code, out) == (2, "")
        assert "line 1" in err and "top weight must be positive" in err

    def test_budget_overflow_exit_3(self, tmp_path, capsys):
        from maxcsp import random_ekcnf, serialize

        big = tmp_path / "big.cnf"
        big.write_text(serialize(random_ekcnf(90, 150, 3, seed=0), "cnf"), encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(big), "--eps", "0.01")
        assert code == 3
        assert "max_iterations" in err

    def test_max_iters_cap(self, tmp_path, capsys):
        from maxcsp import random_ekcnf, serialize

        big = tmp_path / "big.cnf"
        big.write_text(serialize(random_ekcnf(90, 150, 3, seed=0), "cnf"), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "solve", str(big), "--eps", "0.01", "--max-iters", "400"
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["clamped"] == "1"
        assert report["iterations"] == "400"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_not_utf8_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.cnf"
        bad.write_bytes("c caf\u00e9\np cnf 2 1\n1 2 0\n".encode("latin-1"))
        code, out, err = run_cli(capsys, command, str(bad), "--eps", "0.1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "UTF-8" in err and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/x.cnf", "--eps", "0.1")
        assert code == 2

    def test_format_override(self, tmp_path, capsys):
        p = tmp_path / "inst.txt"
        p.write_text("csp 2\nt 1 2 1 2 0110\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "solve", str(p), "--eps", "0.5", "--format", "csp")
        assert code == 0
        assert "best_weight=1.0" in out

    def test_parse_warnings_on_stderr(self, tmp_path, capsys):
        p = tmp_path / "trailer.cnf"
        p.write_text("p cnf 2 1\n1 2 0\n0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(p), "--eps", "0.5")
        assert code == 0
        assert err == "warning: line 3: legacy trailing '0' ignored\n"
        assert "best_weight=1.0" in out

    def test_wbar_line(self, capsys, tiny_cnf):
        code, out, _ = run_cli(capsys, "solve", tiny_cnf, "--eps", "0.5", "--wbar", "6")
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["wbar"] == "6.0"
        assert report["eps_eff"] == repr(0.5 * 6.0 / 12.0)
        assert report["guarantee"] == "multiplicative"

    @pytest.mark.parametrize(
        "text",
        [
            "p wcnf 2 1\n1e308 1 2 0\n",
            "p wcnf 2 2\n1e308 1 0\n1e308 2 0\n",
            # l is finite, but the threshold (l + eps*w)/n is not at n = 1
            "p wcnf 1 1\n1.5e308 1 0\n",
        ],
        ids=["length", "weight", "threshold"],
    )
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowing_total_exit_4(self, tmp_path, capsys, command, text):
        p = tmp_path / "huge.wcnf"
        p.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, command, str(p), "--eps", "0.5")
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and "overflows" in err

    def test_wcnf_weights(self, tmp_path, capsys):
        p = tmp_path / "inst.wcnf"
        p.write_text("p wcnf 2 2\n2.5 1 0\n0.5 -2 0\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "solve", str(p), "--eps", "0.3", "--seed", "2")
        assert code == 0
        assert "w=3.0" in out
        assert "best_weight=3.0" in out  # x1=1, x2=0 satisfies both


class TestExponent:
    def test_hirsch2_value(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--method", "hirsch2", "--k", "3", "--eps", "0.1")
        assert code == 0
        assert "exponent=0.9556059" in out

    def test_ours_value(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--method", "ours", "--k", "4", "--eps", "0.04")
        assert code == 0
        assert "exponent=0.9537019" in out
        assert "delta_star=" in out
        assert "base=" in out and "x=" in out

    def test_ours_delta_star_digits(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--method", "ours", "--k", "3", "--eps", "0.125")
        assert code == 0
        assert "exponent=0.8740555" in out
        assert "delta_star=1.436124943" in out

    def test_delta2(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "--method", "ours-delta2", "--k", "3", "--eps", "0.1"
        )
        assert code == 0
        assert "exponent=0.9388542" in out
        assert "delta_star=2.000000000" in out

    def test_hirsch1(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--method", "hirsch1", "--k", "3", "--eps", "0.1")
        assert code == 0
        assert "method=hirsch1" in out
        assert "exponent=0.9569313" in out

    def test_k_1024(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--method", "ours", "--k", "1024", "--eps", "0.1")
        assert code == 0
        assert "k=1024" in out

    def test_ept_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--method", "ept", "--eps", "0.9")
        assert code == 4
        assert "error" in err

    def test_ept_ok(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--method", "ept", "--eps", "0.1")
        assert code == 0
        assert "exponent=0.5098039" in out
        assert "alpha=0.796" in out

    def test_missing_k(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--method", "ours", "--eps", "0.1")
        assert code == 4
        assert "--k" in err


class TestTable:
    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert len(out.splitlines()) == 27

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--check")
        assert code == 0
        assert "check=ok" in out

    def test_specific_row(self, capsys):
        _, out, _ = run_cli(capsys, "table")
        assert "k=6 eps=1/64 hirsch2=0.9962960 ours=0.9834889" in out

    def test_human_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--human")
        assert code == 0
        assert out.splitlines()[0].split() == ["k", "eps", "hirsch2", "ours"]

    def test_check_mismatch_exit_5(self, capsys, monkeypatch):
        import dataclasses

        from maxcsp import bounds

        rows = list(bounds.PUBLISHED_EXPONENTS)
        rows[0] = dataclasses.replace(rows[0], ours=0.5)
        monkeypatch.setattr(bounds, "PUBLISHED_EXPONENTS", tuple(rows))
        code, out, err = run_cli(capsys, "table", "--check")
        assert code == 5
        assert out.splitlines()[-1] == "check=failed rows=27 mismatches=1"
        assert err == (
            "mismatch k=3 eps=1/8: hirsch2 0.9455522 vs 0.9455522, ours 0.8740555 vs 0.5000000\n"
        )


class TestVerify:
    def test_passes_on_generated(self, capsys, tiny_cnf):
        code, out, _ = run_cli(capsys, "verify", tiny_cnf, "--eps", "0.25")
        assert code == 0
        assert "all_pass=1" in out

    def test_human_rendering(self, capsys, tiny_cnf):
        code, out, _ = run_cli(capsys, "verify", tiny_cnf, "--eps", "0.25", "--human")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  delta=")]
        assert rows and all("count_ok=True members_ok=True" in row for row in rows)
        assert out.splitlines()[-1] == "all_pass=1"

    def test_passes_full_relaxation(self, capsys, tiny_cnf):
        code, out, _ = run_cli(capsys, "verify", tiny_cnf, "--eps", "1")
        assert code == 0

    def test_pins_optimum_and_exact_count(self, tmp_path, capsys):
        # a unit 3-CNF at n=20 takes the oracle's integer cofactor table; the
        # report prints plain Python numbers, never a numpy scalar's repr
        from maxcsp import brute_force_optimum, parse_cnf

        code, text, _ = run_cli(capsys, "gen", "--n", "20", "--m", "90", "--k", "3", "--seed", "20")
        p = tmp_path / "e3.cnf"
        p.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(p), "--eps", "0.05")
        assert code == 0
        assert out.splitlines()[4:6] == ["w_star=89.0", "d_exact=23696"]
        w_star, _ = brute_force_optimum(parse_cnf(text)[0])
        assert type(w_star) is float and w_star == 89.0

    def test_complementary_units(self, tmp_path, capsys):
        p = tmp_path / "two.cnf"
        p.write_text("p cnf 1 2\n1 0\n-1 0\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(p), "--eps", "0.5")
        assert code == 0
        assert "d_exact=2" in out

    def test_cap_maps_to_domain_exit(self, tmp_path, capsys):
        # the table's bytes decide, with no flag: a WCNF at n=26 takes a
        # 128 MiB uint16 bound table and passes, a unit CNF at n=29 would
        # take 512 MiB of uint8 and is refused
        from maxcsp import random_ekcnf, random_wcnf, serialize

        p = tmp_path / "n26.wcnf"
        p.write_text(serialize(random_wcnf(26, 87, 3, seed=1), "wcnf"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(p), "--eps", "0.1")
        assert code == 0
        assert out.splitlines()[-1] == "all_pass=1"
        p = tmp_path / "n29.cnf"
        p.write_text(serialize(random_ekcnf(29, 120, 3, seed=1), "cnf"), encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", str(p), "--eps", "0.5")
        assert code == 4
        assert err.startswith("error: ") and f"{1 << 29} bytes" in err

    def test_table_too_large_maps_to_domain_exit(self, tmp_path, capsys):
        # a 2^60-entry table is refused by its byte count, before numpy is asked for it
        from maxcsp import random_ekcnf, serialize

        p = tmp_path / "n60.cnf"
        p.write_text(serialize(random_ekcnf(60, 100, 3, seed=0), "cnf"), encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", str(p), "--eps", "0.5")
        assert code == 4
        assert err.startswith("error: ") and "2^60" in err


def test_import_needs_only_numpy():
    # numpy is the only runtime dependency; importing the package must not
    # pull in scipy, even where it is installed
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, maxcsp; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert run.stdout.strip() == "False"
