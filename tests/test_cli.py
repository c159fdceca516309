import csv
import json

import numpy as np
import pytest

from schur_shadows.basis import SparseVector, build_basis, load_basis, save_basis
from schur_shadows.cli import main
from schur_shadows.young import Partition
from test_basis import write_out_of_range_file


def write_rotated_file(path) -> None:
    """A (2, 4) basis whose vectors (lam=(3,1), i=1, j=0) and (j=1) are rotated
    into each other by 0.3 rad: still orthonormal, but the j blocks are no
    longer closed under U."""
    basis = build_basis(2, 4)
    vectors = basis.blocks[Partition((3, 1))].vectors
    first, second = vectors[(1, 0)].to_dense(16), vectors[(1, 1)].to_dense(16)
    c, s = np.cos(0.3), np.sin(0.3)
    vectors[(1, 0)] = SparseVector.pruned(np.arange(16), c * first + s * second)
    vectors[(1, 1)] = SparseVector.pruned(np.arange(16), c * second - s * first)
    save_basis(basis, path)


def write_rotated_i_file(path) -> None:
    """A (3, 3) basis whose two (lam=(2,1), i, 0) vectors of weight (1,1,1) are
    rotated into each other by 0.3 rad: the (lam, 0) block is unchanged, but
    its two (lam, i) blocks are no longer closed under permutations."""
    basis = build_basis(3, 3)
    block = basis.blocks[Partition((2, 1))]
    first, second = [i for i, w in enumerate(block.weight_of_i) if tuple(w) == (1, 1, 1)]
    a, b = block.vectors[(first, 0)].to_dense(27), block.vectors[(second, 0)].to_dense(27)
    c, s = np.cos(0.3), np.sin(0.3)
    block.vectors[(first, 0)] = SparseVector.pruned(np.arange(27), c * a + s * b)
    block.vectors[(second, 0)] = SparseVector.pruned(np.arange(27), c * b - s * a)
    save_basis(basis, path)


def dense_u_residual(basis) -> float:
    """max ||(1 - P_{lam,j}) E v|| over the (lam, j) blocks, their vectors v and
    E = E_{a,a+1}, E_{a+1,a}, with E and P as d^n x d^n matrices."""
    d, n = basis.d, basis.n
    generators = []
    for a in range(d - 1):
        step = np.zeros((d, d))
        step[a, a + 1] = 1.0
        for e in (step, step.T):
            generators.append(sum(np.kron(np.kron(np.eye(d**k), e), np.eye(d ** (n - k - 1))) for k in range(n)))
    worst = 0.0
    for block in basis.blocks.values():
        for j in range(block.dim_p):
            cols = np.stack([block.vectors[(i, j)].to_dense(d**n) for i in range(block.dim_q)], axis=1)
            outside = np.eye(d**n) - cols @ cols.conj().T
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

    def test_verify_refuses_index_beyond_dimension(self, tmp_path, capsys):
        out = tmp_path / "bad.schb"
        write_out_of_range_file(out)
        assert main(["basis", "verify", "--path", str(out)]) == 1
        err = capsys.readouterr().err
        assert "check failed" in err and "Traceback" not in err

    def test_verify_flags_perturbed_amplitude(self, tmp_path, capsys):
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", "2", "--n", "2", "--out", str(out)]) == 0
        basis = load_basis(out)
        from schur_shadows.young import Partition

        block = basis.blocks[Partition((2,))]
        vec = block.vectors[(1, 0)]
        block.vectors[(1, 0)] = type(vec)(vec.indices, vec.amplitudes + np.array([1e-3, 0.0]))
        save_basis(basis, out)  # valid checksum, perturbed content
        assert main(["basis", "verify", "--path", str(out)]) == 1
        assert "gram_deviation" in capsys.readouterr().out

    def test_verify_flags_rotated_j_blocks(self, tmp_path, capsys):
        # The U-closure residual printed is the one computed densely here.
        out = tmp_path / "rotated.schb"
        write_rotated_file(out)
        assert main(["basis", "verify", "--path", str(out)]) == 1
        report = printed_report(capsys.readouterr().out)
        want = dense_u_residual(load_basis(out))
        assert want > 0.1
        assert float(report["u_closure_residual"]) == pytest.approx(want, rel=1e-3)
        assert float(report["pi_closure_residual"]) < 1e-8
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
        assert calls == {"second": 1, "row_check": 1}
        payload = json.loads(out.read_text())
        assert payload["variance"] == payload["mc"]["variance_exact"]

    def test_cap_checked_before_basis_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("basis built for an over-cap oracle request")

        monkeypatch.setattr("schur_shadows.basis.build_q_bases", refuse)
        assert main(["oracle", "--d", "3", "--lambda", "6", "--samples", "10"]) == 3


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
    ],
)
def test_bad_arguments_fail_before_any_work(args, tmp_path, monkeypatch, capsys):
    for name in ("protocol._product_table", "basis.build_q_bases", "moments.povm_completeness_residual"):
        monkeypatch.setattr(f"schur_shadows.{name}", refuse)
    if args[0] == "bench":
        args = args + ["--out", str(tmp_path / "x.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
