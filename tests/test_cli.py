"""CLI: config parsing, manifests, dispatch, exit codes, reproducibility."""

import csv
import inspect
import os
import subprocess
import sys

import pytest

from chc import experiments
from chc.cli import (
    CONFIG_KEYS,
    RECTANGLE_SWEEPS,
    STUDIES,
    dispatch,
    main,
    parse_config,
    write_run_manifest,
)
from chc.fem import DENSE_EIG_LIMIT, build_rectangle_mesh
from chc.spectral import DomainSpec


def write_config(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "study = run\nn = 16\n# comment\nT = 0.05\n")
        study, args = parse_config(cfg)
        assert study == "run"
        assert args.arguments["n"] == 16
        assert args.arguments["T"] == 0.05
        assert args.arguments["seed"] == 42  # single_run's default
        _, args2 = parse_config(cfg, {"seed": "7"})
        assert args2.arguments["seed"] == 7

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_a_bare_study_takes_its_function_defaults(self, study):
        _, args = parse_config(None, {"study": study})
        params = inspect.signature(getattr(experiments, STUDIES[study])).parameters
        assert args.arguments == {name: p.default for name, p in params.items()}

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
        args = parse_config(cfg)[1].arguments
        assert args["domain"] == DomainSpec.rectangle(2.0, 1.0)
        assert args["potential"] == (0.25, 0.0, -0.5, 0.0, 0.25)
        assert args["x0"] == (0.0, 0.1, 0.05)
        cfg = write_config(tmp_path, "study = run\npotential = 0,0,-1,0,1\nx0 = 0,0.2\n", "c2.txt")
        args = parse_config(cfg)[1].arguments
        assert args["potential"] == (0.0, 0.0, -1.0, 0.0, 1.0)
        assert args["x0"] == (0.0, 0.2)

    def test_bad_potential_is_refused(self, tmp_path):
        cfg = write_config(tmp_path, "study = run\npotential = 0,0,1\n")
        with pytest.raises(ValueError, match="cannot parse .* 5 coefficients"):
            parse_config(cfg)


class TestDispatch:
    def test_run_writes_artifacts(self, tmp_path):
        study, args = parse_config(
            None, {"study": "run", "n": "16", "N": "10", "T": "0.01", "J": "8"}
        )
        out = tmp_path / "out"
        status = dispatch(study, args, str(out))
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
        out = tmp_path / "o2"
        assert dispatch(*parse_config(None, {"study": "study-det-deriv"}), str(out)) == 0
        lines = (out / "study-det-deriv.csv").read_text().splitlines()
        assert lines[0] == "level,h,k,M,error,stderr,slope,r2"
        assert len(lines) == 9  # two sweeps x four levels


    def test_strong_csv_reads_as_csv(self, tmp_path):
        parsed = parse_config(
            None,
            {"study": "study-strong", "n": "16", "N": "16", "levels": "3", "T": "0.01",
             "M": "2", "J": "8"},
        )
        out = tmp_path / "strong"
        dispatch(*parsed, str(out))
        with open(out / "study-strong.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["level"] for row in rows] == ["n=4,N=4", "n=8,N=8"]
        assert [float(row["h"]) for row in rows] == [0.25, 0.125]

    def test_stoch_conv_manifest_records_what_it_reads(self, tmp_path):
        study, args = parse_config(None, {"study": "study-stoch-conv"})
        path = write_run_manifest(study, args, str(tmp_path), "study-stoch-conv.csv")
        with open(path) as fh:
            entries = dict(line.rstrip("\n").split(" = ") for line in fh)
        assert list(entries) == [
            "artifact_version", "timestamp", "study", "domain", "L", "r", "sigma", "J", "M",
            "seed", "n_temporal", "T_temporal", "Ns_temporal", "ns_spatial", "T_spatial",
            "N_spatial", "output_csv",
        ]
        assert entries["J"] == "64"
        assert entries["M"] == "200"
        assert entries["Ns_temporal"] == entries["ns_spatial"] == "(8, 16, 32, 64)"

    def test_rectangle_det_manifest_records_its_sweep(self, tmp_path):
        study, args = parse_config(None, {"study": "study-det", "domain": "rectangle"})
        path = write_run_manifest(study, args, str(tmp_path), "study-det.csv")
        with open(path) as fh:
            text = fh.read()
        assert "domain = rectangle\nLx = 1.0\nLy = 1.0\n" in text
        assert "ns_spatial = (8, 16, 32)\n" in text
        assert "n_temporal = 32\n" in text


# one value of each config key, valid for every study that takes it (the strong
# ladder still nests with any one of them)
_VALUES = {
    "L": "1", "Lx": "1", "Ly": "2", "n": "64", "N": "128", "T": "0.05", "M": "4",
    "J": "8", "sigma": "0.5", "r": "2", "seed": "3", "levels": "3", "factor": "2",
    "potential": "0.25,0,-0.5,0,0.25", "x0": "0,0.1", "workers": "1",
}


@pytest.mark.parametrize(
    "study, kind",
    [(s, kind) for kind in ("interval", "rectangle") for s in sorted(STUDIES)],
    ids=[s if kind == "interval" else f"{s}-rectangle"
         for kind in ("interval", "rectangle") for s in sorted(STUDIES)],
)
def test_table_keys_are_the_keys_read(study, kind, tmp_path):
    # a file key is accepted iff it is a parameter of the study's function,
    # study, domain or a length of the domain
    signature = inspect.signature(getattr(experiments, STUDIES[study]))
    params = signature.parameters
    _, args = parse_config(None, {"study": study, "domain": kind})
    assert args.arguments["domain"].kind == kind
    assert list(signature.bind(*args.args, **args.kwargs).arguments) == list(params)

    lengths = {"interval": {"L"}, "rectangle": {"Lx", "Ly"}}[kind]
    assert set(_VALUES) == set(CONFIG_KEYS) - {"study", "domain"}
    accepted = set()
    for key, value in _VALUES.items():
        cfg = write_config(tmp_path, f"study = {study}\ndomain = {kind}\n{key} = {value}\n")
        try:
            parsed = parse_config(cfg)[1].arguments
        except ValueError as err:
            assert f"does not read config keys {key}" in str(err)
            continue
        accepted.add(key)
        if key in params:
            assert parsed[key] == CONFIG_KEYS[key](value)
    assert accepted == (set(params) & set(CONFIG_KEYS)) - {"domain"} | lengths


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

    def test_options_after_the_study_name(self, tmp_path):
        cfg = write_config(tmp_path, "n = 16\nN = 5\nT = 0.005\nJ = 8\n")
        before, after = tmp_path / "before", tmp_path / "after"
        assert main(["--config", cfg, "--out", str(before), "run"]) == 0
        assert main(["run", "--config", cfg, "--out", str(after)]) == 0
        assert (before / "run.csv").read_bytes() == (after / "run.csv").read_bytes()

    def test_option_before_the_name_is_kept(self, tmp_path):
        cfg = write_config(tmp_path, "n = 16\nN = 5\nT = 0.005\nJ = 8\n")
        out = tmp_path / "split"
        assert main(["--seed", "9", "--config", cfg, "run", "--out", str(out)]) == 0
        assert "seed = 9" in (out / "manifest.txt").read_text()

    def test_default_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "n = 16\nN = 5\nT = 0.005\nJ = 8\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "out" / "run.csv").exists()


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
        "text",
        [
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

    def test_bare_strong_parses_to_the_criterion_7_hierarchy(self):
        study, args = parse_config(None, {"study": "study-strong"})
        assert study == "study-strong"
        assert {k: args.arguments[k] for k in ("n", "N", "levels", "factor", "M")} == dict(
            n=128, N=256, levels=4, factor=2, M=64
        )

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


class TestRectangle:
    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_every_study_parses(self, study):
        # the rectangle, with the study's rectangle sweep in place of its interval default
        _, args = parse_config(None, {"study": study, "domain": "rectangle", "Ly": "2"})
        assert args.arguments["domain"] == DomainSpec.rectangle(1.0, 2.0)
        for key, value in RECTANGLE_SWEEPS.get(study, {}).items():
            assert args.arguments[key] == value

    def test_strong_exits_0_and_writes_the_mesh_diameter(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "study = study-strong\ndomain = rectangle\nn = 16\nN = 16\nlevels = 3\n"
            "T = 0.05\nM = 4\nJ = 8\n",
        )
        out = tmp_path / "strong"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        with open(out / "study-strong.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["level"] for row in rows] == ["n=4,N=4", "n=8,N=8"]
        diameters = [build_rectangle_mesh(1.0, 1.0, n, n).h for n in (4, 8)]
        assert [float(row["h"]) for row in rows] == diameters
        assert diameters == pytest.approx([2**0.5 / 4, 2**0.5 / 8])

    def test_det_deriv_exits_0(self, tmp_path):
        cfg = write_config(tmp_path, "study = study-det-deriv\ndomain = rectangle\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "deriv")]) == 0

    @pytest.mark.parametrize("study", sorted(RECTANGLE_SWEEPS))
    def test_sweep_stays_under_the_dense_limit(self, study):
        sweep = RECTANGLE_SWEEPS[study]
        assert (max(*sweep["ns_spatial"], sweep["n_temporal"]) + 1) ** 2 <= DENSE_EIG_LIMIT


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
