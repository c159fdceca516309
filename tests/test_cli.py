import csv
import json

import numpy as np
import pytest

from oracles import dense_basis_matrix, edited_basis, write_old_format_file
from schur_shadows.basis import load_basis, save_basis
from schur_shadows.cli import main
from schur_shadows.young import Partition
from test_basis import rotated_bases, write_bad_shape_file


def write_rotated_file(path) -> None:
    """A (2, 4) basis whose vectors (lam=(3,1), i=1, j=0) and (j=1) are rotated
    into each other by 0.3 rad: still orthonormal, but the (lam, 0) block is
    no longer closed under U."""
    save_basis(rotated_bases()[0][0], path)


def write_rotated_i_file(path) -> None:
    """A (3, 3) basis whose two (lam=(2,1), i, 0) vectors of weight (1,1,1) are
    rotated into each other by 0.3 rad: the (lam, 0) block is unchanged, but
    its two (lam, i) blocks are no longer closed under permutations."""
    save_basis(rotated_bases()[1][0], path)


def dense_u_residual(basis) -> float:
    """max ||(1 - P_{lam,0}) E v|| over the (lam, 0) blocks, their vectors v and
    E = E_{a,a+1}, E_{a+1,a}, with E and P as d^n x d^n matrices."""
    d, n = basis.d, basis.n
    generators = []
    for a in range(d - 1):
        step = np.zeros((d, d))
        step[a, a + 1] = 1.0
        for e in (step, step.T):
            generators.append(sum(np.kron(np.kron(np.eye(d**k), e), np.eye(d ** (n - k - 1))) for k in range(n)))
    worst = 0.0
    mat, slices = dense_basis_matrix(basis)
    for (_, j), block_cols in slices.items():
        if j:
            continue
        cols = mat[:, block_cols]
        outside = np.eye(d**n) - cols @ cols.T
        for e in generators:
            worst = max(worst, float(np.max(np.linalg.norm(outside @ e @ cols, axis=0))))
    return worst


def printed_report(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def refuse(*_args, **_kwargs):
    raise AssertionError("work started that this command must not do")


class TestBasisCommands:
    def test_build_and_verify(self, tmp_path, capsys):
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", "2", "--n", "3", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "total vectors: 8" in stdout
        assert "dim_Q = 2, dim_P = 2" in stdout
        assert out.exists()
        assert main(["basis", "verify", "--path", str(out)]) == 0

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 12)])
    def test_build_over_the_basis_cap_exits_3_before_stage_1(self, tmp_path, monkeypatch, capsys, d, n):
        monkeypatch.setattr("schur_shadows.basis.build_q_bases", refuse)
        monkeypatch.setattr("schur_shadows.young.digit_table", refuse)
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", str(d), "--n", str(n), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "resource cap:" in err and "multinom" in err and "Traceback" not in err
        assert not out.exists()

    def test_large_d_weight_table_exits_3_before_stage_1(self, tmp_path, monkeypatch, capsys):
        # (256, 3): d^n = 2^24 and a 764-MiB basis pass their caps, but the
        # (C, d) weight table of its C = 2,829,056 weights would take 5.4 GiB.
        for name in ("basis.build_q_bases", "basis._weight_rows", "young.digit_table"):
            monkeypatch.setattr(f"schur_shadows.{name}", refuse)
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", "256", "--n", "3", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "resource cap:" in err and "weight table of 8 C d = 5793906688 bytes" in err
        assert not out.exists()

    def test_huge_n_exits_3(self, tmp_path, capsys):
        # 2^20000 has more than 4300 decimal digits: the cap is decided by
        # exponents and the message names d and n, not d^n.
        assert main(["basis", "build", "--d", "2", "--n", "20000", "--out", str(tmp_path / "b.schb")]) == 3
        err = capsys.readouterr().err
        assert "resource cap:" in err and "2**20000" in err

    def test_build_needs_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["basis", "build", "--d", "2", "--n", "2"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_out_directory_refused_before_build(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("schur_shadows.basis.build_basis", refuse)
        assert main(["basis", "build", "--d", "3", "--n", "9", "--out", str(tmp_path / "nowhere" / "b.schb")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "nowhere" in err and "Traceback" not in err

    def test_build_rejects_bad_dims(self, tmp_path):
        assert main(["basis", "build", "--d", "0", "--n", "2", "--out", str(tmp_path / "x.schb")]) == 2

    def test_build_cap_exceeded(self, tmp_path):
        assert main(["basis", "build", "--d", "2", "--n", "25", "--out", str(tmp_path / "x.schb")]) == 3

    def test_verify_missing_file(self, tmp_path):
        assert main(["basis", "verify", "--path", str(tmp_path / "nope.schb")]) == 2

    def test_unusable_paths_are_config_errors(self, tmp_path, capsys):
        # A directory given as the file to verify, and an output file in a
        # missing directory, exit 2 with a message and no traceback.
        assert main(["basis", "verify", "--path", str(tmp_path)]) == 2
        assert main(["basis", "build", "--d", "2", "--n", "2", "--out", str(tmp_path / "nowhere" / "b.schb")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2 and "Traceback" not in err

    def test_verify_corrupt_file(self, tmp_path):
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", "2", "--n", "2", "--out", str(out)]) == 0
        raw = out.read_bytes()
        out.write_bytes(raw[:-4])
        assert main(["basis", "verify", "--path", str(out)]) == 1

    def test_verify_refuses_bad_slice_shape(self, tmp_path, capsys):
        out = tmp_path / "bad.schb"
        write_bad_shape_file(out)
        assert main(["basis", "verify", "--path", str(out)]) == 1
        err = capsys.readouterr().err
        assert "check failed" in err and "multinom" in err and "Traceback" not in err

    def test_verify_refuses_v1_file(self, tmp_path, capsys):
        out = tmp_path / "old.schb"
        write_old_format_file(out, 1)
        assert main(["basis", "verify", "--path", str(out)]) == 1
        err = capsys.readouterr().err
        assert "format version 1" in err and "Traceback" not in err

    def test_verify_refuses_v2_file(self, tmp_path, capsys):
        out = tmp_path / "old.schb"
        write_old_format_file(out, 2)
        assert main(["basis", "verify", "--path", str(out)]) == 1
        err = capsys.readouterr().err
        assert "format version 2" in err and "Traceback" not in err

    def test_verify_flags_perturbed_amplitude(self, tmp_path, capsys):
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", "2", "--n", "2", "--out", str(out)]) == 0
        def nudge(matrix, column):
            matrix[0, column[(1, 0)]] += 1e-3

        save_basis(edited_basis(load_basis(out), Partition((2,)), 1, nudge), out)  # valid checksum, perturbed content
        assert main(["basis", "verify", "--path", str(out)]) == 1
        assert "gram_deviation" in capsys.readouterr().out

    def test_verify_flags_rotated_j_blocks(self, tmp_path, capsys):
        # The U-closure residual printed is the one computed densely here. The
        # rotation mixes two j layers of one i, so the form's pi check fails too.
        out = tmp_path / "rotated.schb"
        write_rotated_file(out)
        assert main(["basis", "verify", "--path", str(out)]) == 1
        report = printed_report(capsys.readouterr().out)
        want = dense_u_residual(load_basis(out))
        assert want > 0.1
        assert float(report["u_closure_residual"]) == pytest.approx(want, rel=1e-3)
        assert float(report["pi_closure_residual"]) > 0.1
        assert float(report["gram_deviation"]) < 1e-9

    def test_verify_flags_rotated_i_blocks(self, tmp_path, capsys):
        out = tmp_path / "rotated_i.schb"
        write_rotated_i_file(out)
        assert main(["basis", "verify", "--path", str(out)]) == 1
        report = printed_report(capsys.readouterr().out)
        assert float(report["pi_closure_residual"]) > 0.1
        assert float(report["u_closure_residual"]) < 1e-8
        assert float(report["gram_deviation"]) < 1e-9


class TestShadowRun:
    def run_args(self, tmp_path, out_name="run.csv", seed="5"):
        return [
            "shadow",
            "run",
            "--d",
            "2",
            "--n",
            "60",
            "--rank",
            "2",
            "--epsilon",
            "1.2",
            "--observable",
            "pauli-z",
            "--trials",
            "8",
            "--seed",
            seed,
            "--out",
            str(tmp_path / out_name),
        ]

    def test_run_and_summary(self, tmp_path):
        assert main(self.run_args(tmp_path)) == 0
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert list(rows[0]) == [
            "trial",
            "segment_lambdas",
            "estimate",
            "truth",
            "abs_error",
            "accepted_samples",
            "wall_ms",
        ]
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["success_fraction"] > 2 / 3

    def test_proposals_per_accept_reads_kappa(self, tmp_path):
        # At n' = 2 every row after the first has one box, and the first row of
        # a weight vector is drawn exactly (M = 1), so each segment takes one
        # proposal per row: the summary mean is the mean row count k of the
        # partitions the run measured.
        assert main(self.run_args(tmp_path)) == 0
        with open(tmp_path / "run.csv") as fh:
            labels = [lam for row in csv.DictReader(fh) for lam in row["segment_lambdas"].split(";")]
        rows = np.array([len(lam.split(",")) for lam in labels], dtype=float)
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["mean_povm_proposals_per_accept"] == pytest.approx(rows.mean(), abs=1e-12)

    def test_segment_size_seven(self, tmp_path):
        # epsilon = 1.2 at n = 200 gives segments of n' = 7 qudits
        args = ["shadow", "run", "--d", "2", "--n", "200", "--rank", "1", "--epsilon", "1.2", "--trials", "10"]
        assert main(args + ["--out", str(tmp_path / "run.csv")]) == 0
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["config"]["segment_size"] == 7

    def test_reproducible_outputs(self, tmp_path):
        assert main(self.run_args(tmp_path, "a.csv")) == 0
        assert main(self.run_args(tmp_path, "b.csv")) == 0
        sa = (tmp_path / "a.csv.summary.json").read_bytes()
        sb = (tmp_path / "b.csv.summary.json").read_bytes()
        assert sa == sb
        with open(tmp_path / "a.csv") as fh:
            ra = list(csv.DictReader(fh))
        with open(tmp_path / "b.csv") as fh:
            rb = list(csv.DictReader(fh))
        for row_a, row_b in zip(ra, rb):
            drop_a = {k: v for k, v in row_a.items() if k != "wall_ms"}
            drop_b = {k: v for k, v in row_b.items() if k != "wall_ms"}
            assert drop_a == drop_b

    def test_json_format(self, tmp_path):
        args = self.run_args(tmp_path, "run.json")
        args += ["--format", "json"]
        assert main(args) == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 8

    def test_frobenius_bound_validated_before_run(self, tmp_path):
        args = self.run_args(tmp_path)
        args += ["--bound", "1.0"]  # pauli-z has tr(O^2) = 2
        assert main(args) == 2

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_non_finite_bound_refused_before_run(self, tmp_path, capsys, bound):
        # tr(O^2) > nan is false, so a NaN bound used to pass every observable
        # and land in the summary as NaN, which is not JSON.
        assert main(self.run_args(tmp_path) + ["--bound", bound]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.csv.summary.json").exists()

    def test_non_finite_observable_file_refused_before_run(self, tmp_path, capsys):
        # Used to run every trial and exit 1 with a NaN truth.
        spec = tmp_path / "obs.json"
        spec.write_text(json.dumps({"matrix": [[float("nan"), 0.0], [0.0, -1.0]], "frobenius_sq_bound": 2.0}))
        args = self.run_args(tmp_path)
        args[args.index("--observable") + 1] = f"@{spec}"
        assert main(args) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_builds_no_basis(self, tmp_path, monkeypatch):
        for name in ("schur_basis_completion", "build_basis"):
            monkeypatch.setattr(f"schur_shadows.basis.{name}", refuse)
        assert main(self.run_args(tmp_path)) == 0
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["passed"]

    def test_config_validation(self, tmp_path):
        bad = self.run_args(tmp_path)
        bad[bad.index("--n") + 1] = "4"  # below ceil(10/eps^2)
        assert main(bad) == 2
        bad = self.run_args(tmp_path)
        bad[bad.index("--rank") + 1] = "3"  # rank > d
        assert main(bad) == 2
        bad = self.run_args(tmp_path)
        bad[bad.index("--epsilon") + 1] = "-1"
        assert main(bad) == 2

    @pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan"])
    def test_non_finite_epsilon_is_a_config_error(self, tmp_path, capsys, epsilon):
        args = self.run_args(tmp_path)
        at = args.index("--epsilon")
        args[at : at + 2] = [f"--epsilon={epsilon}"]
        assert main(args) == 2
        assert "finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["1e155", "1e200"])
    def test_huge_epsilon_runs_one_segment(self, tmp_path, epsilon):
        # epsilon^2 would overflow; T = ceil(10 / epsilon^2) is 1.
        args = self.run_args(tmp_path)
        args[args.index("--epsilon") + 1] = epsilon
        args[args.index("--n") + 1] = "3"
        assert main(args) == 0
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["config"]["t_segments"] == 1 and summary["config"]["segment_size"] == 3


class TestOracleCommand:
    def test_moment_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["oracle", "--d", "2", "--lambda", "3,1", "--samples", "4000", "--out", str(out)]
        )
        assert code == 0
        assert "first moment vs closed form" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["partition"] == [3, 1]
        assert payload["first_moment_formula_gap"] < 1e-9

    def test_closed_form_value(self, capsys):
        assert main(["oracle", "--closed-form", "--p", "2", "--q", "2", "--obs", "pauli-z"]) == 0
        out = capsys.readouterr().out
        value = float(out.strip().rsplit(" ", 1)[-1])
        assert value == pytest.approx(36 / 7, abs=1e-12)

    def test_povm_mode(self, tmp_path):
        out = tmp_path / "povm.json"
        code = main(
            ["oracle", "--povm", "--lambda", "2,1", "--d", "2", "--samples", "5000", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["residual"] < 1e-9

    @pytest.mark.parametrize("seed", [0, 6])
    def test_povm_gate_is_familywise(self, tmp_path, seed):
        # Max |z| over 8192 statistics reads 3.60 at seed 0 and 3.48 at
        # seed 6: beyond 3 sigma for one statistic, within the gate for 8192.
        out = tmp_path / "povm.json"
        args = ["oracle", "--povm", "--lambda", "3,3", "--d", "2", "--samples", "2000", "--seed", str(seed)]
        assert main(args + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mc"]["entries"] == 8192
        assert 3.0 < payload["mc"]["max_abs_z"] <= payload["z_threshold"]

    def test_povm_gate_fails_on_corrupted_target(self, tmp_path, monkeypatch):
        from schur_shadows import moments

        real = moments.row_symmetric_projector

        def corrupted(lam, d):
            proj = real(lam, d).copy()
            proj[0, 0] += 1.0
            return proj

        # The exact residual passes, so only the Monte Carlo gate can fail.
        monkeypatch.setattr(moments, "row_symmetric_projector", corrupted)
        monkeypatch.setattr(moments, "povm_completeness_residual", lambda *_args: 0.0)
        out = tmp_path / "povm.json"
        args = ["oracle", "--povm", "--lambda", "2,1", "--d", "2", "--samples", "2000", "--out", str(out)]
        assert main(args) == 1
        payload = json.loads(out.read_text())
        assert payload["mc"]["max_abs_z"] > payload["z_threshold"]

    def test_moment_gate_fails_on_corrupted_target(self, tmp_path, monkeypatch):
        from schur_shadows import moments

        real = moments.second_moment_exact

        def corrupted(lam, tau):
            second = real(lam, tau)
            second[0, 0] += 1.0
            return second

        monkeypatch.setattr(moments, "second_moment_exact", corrupted)
        out = tmp_path / "report.json"
        args = ["oracle", "--d", "2", "--lambda", "2,1", "--samples", "2000", "--out", str(out)]
        assert main(args) == 1
        payload = json.loads(out.read_text())
        assert payload["first_moment_formula_gap"] < 1e-9 and payload["hermiticity_deviation"] < 1e-10
        assert payload["mc"]["first_moment_max_z"] <= payload["first_moment_z_threshold"]
        assert payload["mc"]["second_moment_max_z"] > payload["second_moment_z_threshold"]

    def test_variance_gate_fails_on_corrupted_variance(self, tmp_path, monkeypatch):
        from schur_shadows import moments

        real = moments.variance_exact
        # Both moments stay right, so only the variance gate can fail.
        monkeypatch.setattr(moments, "variance_exact", lambda *args: real(*args) + 1.0)
        out = tmp_path / "report.json"
        args = ["oracle", "--d", "2", "--lambda", "2,1", "--samples", "2000", "--out", str(out)]
        assert main(args) == 1
        payload = json.loads(out.read_text())
        assert payload["mc"]["first_moment_max_z"] <= payload["first_moment_z_threshold"]
        assert payload["mc"]["second_moment_max_z"] <= payload["second_moment_z_threshold"]
        assert payload["mc"]["variance_z"] > payload["variance_z_threshold"]

    def test_partition_validation(self):
        assert main(["oracle", "--d", "2", "--lambda", "1,3"]) == 2
        assert main(["oracle", "--d", "2", "--lambda", "2,1,1"]) == 2
        assert main(["oracle", "--d", "2"]) == 2

    def test_cap_exceeded(self):
        assert main(["oracle", "--d", "3", "--lambda", "6", "--samples", "10"]) == 3

    def test_each_exact_moment_once(self, tmp_path, monkeypatch):
        from schur_shadows import moments

        calls = {"second": 0, "row_check": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(moments, "second_moment_exact", counted("second", moments.second_moment_exact))
        monkeypatch.setattr(moments, "row_symmetry_residual", counted("row_check", moments.row_symmetry_residual))
        out = tmp_path / "report.json"
        assert main(["oracle", "--d", "2", "--lambda", "3,1", "--samples", "500", "--out", str(out)]) == 0
        # Each exact moment checks the state it is given: once each.
        assert calls == {"second": 1, "row_check": 2}
        payload = json.loads(out.read_text())
        assert payload["variance"] == payload["mc"]["variance_exact"]

    def test_huge_n_exits_3(self, capsys):
        assert main(["oracle", "--d", "2", "--lambda", "20000"]) == 3
        err = capsys.readouterr().err
        assert "resource cap:" in err and "2^20002" in err

    def test_povm_cap_exits_3_before_any_array(self, monkeypatch, capsys):
        # d^n = 4^8: the d^n x d^n projector alone would take 32 GiB.
        monkeypatch.setattr("schur_shadows.moments.row_symmetric_projector", refuse)
        monkeypatch.setattr("schur_shadows.moments._apply_row_symmetrizers", refuse)
        assert main(["oracle", "--povm", "--lambda", "4,4", "--d", "4", "--samples", "0"]) == 3
        assert "resource cap:" in capsys.readouterr().err
        assert main(["oracle", "--povm", "--lambda", "4,4", "--d", "4", "--samples", "10"]) == 3

    def test_cap_checked_before_basis_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("basis built for an over-cap oracle request")

        monkeypatch.setattr("schur_shadows.basis.build_q_bases", refuse)
        assert main(["oracle", "--d", "3", "--lambda", "6", "--samples", "10"]) == 3


class TestProductTableCap:
    """A product table too large to hold is refused with exit 3 before stage 1."""

    @pytest.fixture(autouse=True)
    def no_stage1(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("stage 1 ran before the refusal")

        monkeypatch.setattr("schur_shadows.protocol.build_q_bases", refuse)

    def test_shadow_run(self, tmp_path, capsys):
        # epsilon 1.2 gives T = 28 segments, so n = 168 gives n' = 6 at d = 8.
        args = ["shadow", "run", "--d", "8", "--n", "168", "--rank", "2", "--epsilon", "1.2", "--trials", "1"]
        assert main(args + ["--out", str(tmp_path / "run.csv")]) == 3
        assert "product table" in capsys.readouterr().err

    def test_bench_scaling(self, tmp_path, capsys):
        args = ["bench", "scaling", "--t-grid", "2", "--d", "8", "--segment-size", "6", "--trials", "1"]
        assert main(args + ["--out", str(tmp_path / "bench.csv")]) == 3
        assert "product table" in capsys.readouterr().err

    def test_d_power_n_refused_before_any_table(self, tmp_path, monkeypatch, capsys):
        # epsilon 10 gives T = 1, so n' = 25 at d = 2: 18,200 row-1 entries,
        # under their cap, but a (2^25, 25) digit table would take 6.7 GB.
        monkeypatch.setattr("schur_shadows.young.digit_table", refuse)
        args = ["shadow", "run", "--d", "2", "--n", "25", "--rank", "2", "--epsilon", "10", "--trials", "1"]
        assert main(args + ["--out", str(tmp_path / "run.csv")]) == 3
        assert "2**25" in capsys.readouterr().err

    def test_caps_decided_before_any_count_or_draw(self, tmp_path, monkeypatch, capsys):
        # epsilon 1.2 gives T = 28, so n' = 4000: counting the row-1 laws over
        # the partitions of 4000 took 21 s, and the draw of the 112,000
        # symbols came before any check.
        monkeypatch.setattr("schur_shadows.protocol._product_table_bytes", refuse)
        monkeypatch.setattr("schur_shadows.protocol.sample_population_input", refuse)
        args = ["shadow", "run", "--d", "2", "--n", "112000", "--rank", "2", "--epsilon", "1.2", "--trials", "1"]
        assert main(args + ["--out", str(tmp_path / "run.csv")]) == 3
        assert "2**4000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["shadow", "run", "--d", "2", "--n", "24", "--rank", "2", "--epsilon", "10", "--trials", "1"],
            ["bench", "scaling", "--t-grid", "1", "--d", "3", "--segment-size", "15", "--trials", "1"],
        ],
        ids=["shadow-run", "bench-scaling"],
    )
    def test_d_power_n_tables_refused_by_their_bytes(self, args, tmp_path, monkeypatch, capsys):
        # (2, 24) and (3, 15) pass the entry and d^n' caps, but their digit
        # tables alone would take 3.0 and 1.6 GiB.
        monkeypatch.setattr("schur_shadows.young.digit_table", refuse)
        assert main(args + ["--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert "resource cap:" in err and "bytes of d^n' tables" in err


class TestBenchCommand:
    def test_scaling_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "scaling",
                "--t-grid",
                "4,16",
                "--d",
                "2",
                "--rank",
                "2",
                "--segment-size",
                "2",
                "--trials",
                "12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_segments", "n_copies", "protocol", "mean_abs_error", "trials"]
        assert len(rows) == 1 + 4  # two T values x {joint, baseline}

    def test_scaling_builds_no_basis(self, tmp_path, monkeypatch):
        for name in ("schur_basis_completion", "build_basis"):
            monkeypatch.setattr(f"schur_shadows.basis.{name}", refuse)
        out = tmp_path / "bench.csv"
        args = ["bench", "scaling", "--t-grid", "4,16", "--segment-size", "5", "--trials", "4", "--out", str(out)]
        assert main(args) == 0
        with open(out) as fh:
            assert len(list(csv.reader(fh))) == 1 + 4

    def test_empty_grid(self, tmp_path):
        assert main(["bench", "scaling", "--t-grid", "", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["shadow", "run", "--d", "3", "--n", "60", "--rank", "2", "--epsilon", "1.2", "--trials", "2"],
        ["bench", "scaling", "--t-grid", "4", "--d", "3", "--trials", "2"],
        ["oracle", "--d", "3", "--lambda", "2,1", "--samples", "10"],
    ],
    ids=["shadow-run", "bench-scaling", "oracle"],
)
def test_observable_file_of_wrong_size_is_a_config_error(args, tmp_path, monkeypatch, capsys):
    # A 2 x 2 matrix at d = 3 used to end in a numpy shape error (exit 1),
    # for the oracle only after every exact moment and Monte Carlo sample.
    for name in ("protocol._product_table", "basis.build_q_bases"):
        monkeypatch.setattr(f"schur_shadows.{name}", refuse)
    spec = tmp_path / "obs.json"
    spec.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, -1.0]], "frobenius_sq_bound": 2.0}))
    flag = "--obs" if args[0] == "oracle" else "--observable"
    out = [] if args[0] == "oracle" else ["--out", str(tmp_path / "out.csv")]
    assert main(args + [flag, f"@{spec}"] + out) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "expected 3 x 3" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "scaling", "--t-grid", "4", "--trials", "0"],
        ["bench", "scaling", "--t-grid", "4", "--d", "1", "--rank", "1"],
        ["bench", "scaling", "--t-grid", "4", "--segment-size", "0"],
        ["bench", "scaling", "--t-grid", "0"],
        ["bench", "scaling", "--t-grid", "4,x"],
        ["bench", "scaling", "--t-grid", "4", "--observable", "nonsense"],
        ["bench", "scaling", "--t-grid", "4", "--observable", "projector:9"],
        ["bench", "scaling", "--t-grid", "4", "--observable", "@missing.json"],
        ["oracle", "--d", "1", "--lambda", "2"],
        ["oracle", "--d", "2", "--lambda", "2,1", "--samples", "0"],
        ["oracle", "--povm", "--lambda", "2,1", "--samples", "-3"],
        ["oracle", "--closed-form", "--p", "-1", "--q", "2"],
        ["oracle", "--closed-form", "--p", "0", "--q", "0"],
        ["oracle", "--closed-form", "--p", "2", "--q", "2", "--obs", "projector"],
        ["oracle", "--lambda", "3,1", "--obs", "nonsense"],
        ["shadow", "run", "--d", "2", "--n", "40", "--rank", "2", "--epsilon", "2.1", "--seed", "-1"],
        ["bench", "scaling", "--t-grid", "4", "--seed", "-1"],
        ["oracle", "--lambda", "2,1", "--samples", "10", "--seed", "-1"],
        ["oracle", "--povm", "--lambda", "2,1", "--samples", "10", "--seed", "-1"],
        ["oracle", "--closed-form", "--p", "2", "--q", "1", "--seed", "-1"],
    ],
)
def test_bad_arguments_fail_before_any_work(args, tmp_path, monkeypatch, capsys):
    for name in ("protocol._product_table", "basis.build_q_bases", "moments.povm_completeness_residual"):
        monkeypatch.setattr(f"schur_shadows.{name}", refuse)
    if args[0] in ("bench", "shadow"):
        args = args + ["--out", str(tmp_path / "x.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
