"""CLI: config parsing, manifests, dispatch, exit codes, reproducibility."""

import csv
import inspect
import os
import subprocess
import sys

import pytest

from chc import experiments
from chc.cli import STUDIES, Bundle, dispatch, main, parse_config, write_run_manifest


def write_config(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "study = run\nn = 16\n# comment\nT = 0.05\n")
        b = parse_config(cfg)
        assert b.study == "run"
        assert b.n == 16
        assert b.T == 0.05
        assert b.seed == 42  # default
        b2 = parse_config(cfg, {"seed": "7"})
        assert b2.seed == 7

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, "study = run\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(cfg)

    def test_bad_value(self, tmp_path):
        cfg = write_config(tmp_path, "study = run\nn = many\n")
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config(cfg)

    def test_missing_study(self, tmp_path):
        cfg = write_config(tmp_path, "n = 16\n")
        with pytest.raises(ValueError, match="study"):
            parse_config(cfg)

    def test_range_checks(self, tmp_path):
        with pytest.raises(ValueError, match="N must be"):
            parse_config(write_config(tmp_path, "study = run\nN = 0\n"))
        with pytest.raises(ValueError, match="T must be"):
            parse_config(write_config(tmp_path, "study = run\nT = -1\n", "c2.txt"))

    def test_malformed_line(self, tmp_path):
        cfg = write_config(tmp_path, "study run\n")
        with pytest.raises(ValueError, match="expected key = value"):
            parse_config(cfg)

    def test_domain_and_potential_bundle(self, tmp_path):
        cfg = write_config(
            tmp_path, "study = run\ndomain = rectangle\nLx = 2\nLy = 1\n"
        )
        b = parse_config(cfg)
        assert b.domain_spec.kind == "rectangle"
        assert b.potential_obj.F_coeffs == (0.25, 0.0, -0.5, 0.0, 0.25)
        assert b.x0_coeffs == (0.0, 0.1, 0.05)


class TestDispatch:
    def test_run_writes_artifacts(self, tmp_path):
        b = parse_config(None, {"study": "run", "n": "16", "N": "10", "T": "0.01", "J": "8"})
        out = tmp_path / "out"
        status = dispatch(b, str(out))
        assert status == 0
        assert (out / "manifest.txt").exists()
        assert (out / "run.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "study = run" in manifest
        assert "output_csv = run.csv" in manifest
        assert "artifact_version" in manifest
        header = (out / "run.csv").read_text().splitlines()[0]
        assert header == "step,t,mass_deviation,J,Y_h1,newton_iters"

    def test_study_csv_schema(self, tmp_path):
        b = parse_config(None, {"study": "study-det-deriv"})
        out = tmp_path / "o2"
        assert dispatch(b, str(out)) == 0
        lines = (out / "study-det-deriv.csv").read_text().splitlines()
        assert lines[0] == "level,h,k,M,error,stderr,slope,r2"
        assert len(lines) == 9  # two sweeps x four levels


    def test_strong_csv_reads_as_csv(self, tmp_path):
        b = parse_config(
            None,
            {"study": "study-strong", "n": "16", "N": "16", "levels": "3", "T": "0.01",
             "M": "2", "J": "8"},
        )
        out = tmp_path / "strong"
        dispatch(b, str(out))
        with open(out / "study-strong.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["level"] for row in rows] == ["n=4,N=4", "n=8,N=8"]
        assert [float(row["h"]) for row in rows] == [0.25, 0.125]

    def test_stoch_conv_manifest_records_what_it_reads(self, tmp_path):
        b = parse_config(None, {"study": "study-stoch-conv"})
        path = write_run_manifest(b, str(tmp_path), "study-stoch-conv.csv")
        with open(path) as fh:
            keys = [line.split(" = ")[0] for line in fh]
        assert not {"J", "n", "N"} & set(keys)
        assert keys == [
            "artifact_version", "timestamp", "L", "M", "domain", "r", "seed", "sigma",
            "study", "output_csv",
        ]


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_table_keys_are_the_keys_read(study):
    # the manifest records an entry's keys, so each must be read and no other
    entry = STUDIES[study]
    # N = 64 nests in the study-strong ladder; the schema default N = 100 does not
    full = parse_config(None, {"study": study, "N": "64"}).values
    view = {k: full[k] for k in ("study", "domain", "L", *entry.keys)}
    kwargs = entry.kwargs(Bundle(view))
    params = inspect.signature(getattr(experiments, entry.function)).parameters
    assert set(kwargs) <= set(params) - {"domain"}
    for key in entry.keys:
        with pytest.raises((AttributeError, KeyError)):
            entry.kwargs(Bundle({k: v for k, v in view.items() if k != key}))


class TestMain:
    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "study = run\nbogus = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_study_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--study", "run", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHC_SEED", "123")
        cfg = write_config(tmp_path, "study = run\nn = 16\nN = 5\nT = 0.005\nJ = 8\n")
        out = tmp_path / "env_out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert "seed = 123" in (out / "manifest.txt").read_text()

    def test_seed_flag_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHC_SEED", "123")
        cfg = write_config(tmp_path, "study = run\nn = 16\nN = 5\nT = 0.005\nJ = 8\n")
        out = tmp_path / "flag_out"
        assert main(["--config", cfg, "--seed", "9", "--out", str(out)]) == 0
        assert "seed = 9" in (out / "manifest.txt").read_text()

    def test_subcommand_dispatch(self, tmp_path):
        cfg = write_config(tmp_path, "n = 16\nN = 5\nT = 0.005\nJ = 8\n")
        out = tmp_path / "sub_out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        assert (out / "run.csv").exists()


class TestRefusedAtParseTime:
    def test_unknown_domain_exits_2_without_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "study = run\ndomain = disk\n")
        out = tmp_path / "disk"
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out", str(out)])
        assert exc.value.code == 2
        assert "unknown domain 'disk'" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "study", ["study-det", "study-det-deriv", "study-stoch-conv", "study-strong"]
    )
    def test_interval_only_study_on_rectangle_exits_2(self, study, tmp_path, capsys):
        cfg = write_config(tmp_path, f"study = {study}\ndomain = rectangle\nn = 8\n")
        out = tmp_path / "rect"
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"study '{study}' does not run on domain 'rectangle'" in err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "study = study-strong\n",  # the defaults: 8 does not divide N = 100
            "study = study-strong\nn = 100\nN = 256\n",  # 8 does not divide n
            "study = study-strong\nn = 8\nN = 64\n",  # one cell on the coarsest level
            "study = study-strong\nfactor = 1\n",
            "study = probe-holder\nN = 50\n",  # 4 does not divide N
        ],
    )
    def test_ladder_that_does_not_nest_exits_2(self, text, tmp_path, capsys):
        out = tmp_path / "ladder"
        with pytest.raises(SystemExit) as exc:
            main(["--config", write_config(tmp_path, text), "--out", str(out)])
        assert exc.value.code == 2
        study = text.split("\n")[0].split(" = ")[1]
        assert f"study {study!r}" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_key_the_study_does_not_read_exits_2(self, tmp_path, capsys):
        out = tmp_path / "unread"
        cfg = write_config(tmp_path, "study = study-det\nM = 8\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out", str(out)])
        assert exc.value.code == 2
        assert "study 'study-det' does not read config keys M" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_global_flags_are_not_refused(self, tmp_path):
        # study-det reads neither seed nor workers; the flags stay unused
        out = tmp_path / "flags"
        assert main(["--seed", "3", "--workers", "2", "--out", str(out), "study-det"]) == 0
        assert "seed" not in (out / "manifest.txt").read_text()

    def test_run_on_rectangle_exits_0(self, tmp_path):
        cfg = write_config(
            tmp_path, "study = run\ndomain = rectangle\nn = 4\nN = 4\nT = 0.004\nJ = 8\n"
        )
        out = tmp_path / "rect_run"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert len((out / "run.csv").read_text().splitlines()) == 5


def test_newton_failure_messages_reach_stderr(tmp_path, capsys, first_config_fails):
    cfg = write_config(
        tmp_path, "study = study-strong\nn = 16\nN = 16\nlevels = 3\nT = 0.01\nM = 3\nJ = 8\n"
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] study-strong: no Newton failures (failures=1)" in captured.out
    assert "study-strong: sample 0: n=16,N=16: step 1: Newton stalled" in captured.err


class TestSubprocess:
    def test_invalid_subcommand_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chc.cli", "no-such-study"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "study = study-strong\nn = 32\nN = 64\nlevels = 3\nT = 0.05\nM = 6\nJ = 16\n",
        )
        outputs = []
        for w, name in ((1, "w1"), (2, "w2")):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "chc.cli",
                    "--config", cfg, "--out", str(out), "--workers", str(w),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "[PASS]" in proc.stdout
            outputs.append((out / "study-strong.csv").read_bytes())
        assert outputs[0] == outputs[1]
