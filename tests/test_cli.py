import csv
import json

import numpy as np
import pytest

from schur_shadows.basis import load_basis, save_basis
from schur_shadows.cli import main
from schur_shadows.young import Partition, kappa_product
from test_moments import z_threshold


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SCHUR_SHADOWS_CACHE_DIR", str(cache))
    return cache


class TestBasisCommands:
    def test_build_and_verify(self, tmp_path, capsys):
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", "2", "--n", "3", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "total vectors: 8" in stdout
        assert "dim_Q = 2, dim_P = 2" in stdout
        assert out.exists()
        assert main(["basis", "verify", "--path", str(out)]) == 0

    def test_build_uses_env_cache_dir(self, isolated_cache):
        assert main(["basis", "build", "--d", "2", "--n", "2"]) == 0
        files = list(isolated_cache.glob("*.schb"))
        assert len(files) == 1

    def test_build_rejects_bad_dims(self):
        assert main(["basis", "build", "--d", "0", "--n", "2"]) == 2

    def test_build_cap_exceeded(self, tmp_path):
        assert main(["basis", "build", "--d", "2", "--n", "25", "--out", str(tmp_path / "x.schb")]) == 3

    def test_verify_missing_file(self, tmp_path):
        assert main(["basis", "verify", "--path", str(tmp_path / "nope.schb")]) == 2

    def test_verify_corrupt_file(self, tmp_path):
        out = tmp_path / "b.schb"
        assert main(["basis", "build", "--d", "2", "--n", "2", "--out", str(out)]) == 0
        raw = out.read_bytes()
        out.write_bytes(raw[:-4])
        assert main(["basis", "verify", "--path", str(out)]) == 1

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
        # Each segment's accept takes a geometric number of proposals with mean
        # kappa(lam), so the summary mean is z-gated against the mean kappa of
        # the partitions the run measured.
        assert main(self.run_args(tmp_path)) == 0
        with open(tmp_path / "run.csv") as fh:
            labels = [lam for row in csv.DictReader(fh) for lam in row["segment_lambdas"].split(";")]
        kappas = np.array([kappa_product(Partition(tuple(map(int, lam.split(",")))), 2) for lam in labels], dtype=float)
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        se = np.sqrt(np.sum(kappas * (kappas - 1))) / kappas.size
        z = abs(summary["mean_povm_proposals_per_accept"] - kappas.mean()) / se
        assert z <= z_threshold(1, 4.0), (summary["mean_povm_proposals_per_accept"], kappas.mean(), z)

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
            ["oracle", "--d", "2", "--n", "4", "--lambda", "3,1", "--samples", "4000", "--out", str(out)]
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
        assert main(["oracle", "--d", "2", "--n", "4", "--lambda", "1,3"]) == 2
        assert main(["oracle", "--d", "2", "--n", "4", "--lambda", "2,1,1"]) == 2
        assert main(["oracle", "--d", "2", "--n", "4"]) == 2

    def test_cap_exceeded(self):
        assert main(["oracle", "--d", "3", "--n", "6", "--lambda", "6", "--samples", "10"]) == 3

    def test_cap_checked_before_basis_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("basis built for an over-cap oracle request")

        monkeypatch.setattr("schur_shadows.basis.build_q_bases", refuse)
        assert main(["oracle", "--d", "3", "--n", "6", "--lambda", "6", "--samples", "10"]) == 3


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

    def test_empty_grid(self, tmp_path):
        assert main(["bench", "scaling", "--t-grid", "", "--out", str(tmp_path / "x.csv")]) == 2
