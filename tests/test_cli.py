import csv
import json
import re
import struct

import pytest

from mutspect.cli import main
from mutspect.dataset import save_dataset
from mutspect.model import save_model
from mutspect.reports import load_json, strip_timing
from mutspect.synth import fitted_classifier, gaussian_blobs

from conftest import exploding_mutant


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds = gaussian_blobs(120, 4, 8, seed=3, spread=0.3)
    model = fitted_classifier(ds, hidden=(10,), seed=6, margin=5.0, bias_shift=2.5)
    model_path = root / "model.fcnn"
    data_path = root / "data.fdst"
    save_model(model, model_path)
    save_dataset(ds, data_path)
    rc = main(
        [
            "generate",
            "--model", str(model_path),
            "--count", "30",
            "--seed", "11",
            "--out", str(root),
        ]
    )
    assert rc == 0
    return root, model_path, data_path, root / "manifest.json"


def run_mode(workdir, mode, out_name, extra=()):
    root, model_path, data_path, manifest = workdir
    out = root / out_name
    rc = main(
        [
            "run",
            "--model", str(model_path),
            "--dataset", str(data_path),
            "--manifest", str(manifest),
            "--mode", mode,
            "--repeats", "1",
            "--out", str(out),
            *extra,
        ]
    )
    return rc, out


def test_generate_manifest_deterministic(workdir, tmp_path):
    root, model_path, _, manifest = workdir
    rc = main(
        [
            "generate",
            "--model", str(model_path),
            "--count", "30",
            "--seed", "11",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "manifest.json").read_bytes() == manifest.read_bytes()


def test_generate_no_applicable_kind_exits_nonzero(workdir, tmp_path, capsys):
    root, model_path, _, _ = workdir
    ds = gaussian_blobs(30, 3, 4, seed=1)
    single = fitted_classifier(ds, hidden=(1,), seed=0)
    single_path = tmp_path / "single.fcnn"
    save_model(single, single_path)
    rc = main(
        [
            "generate",
            "--model", str(single_path),
            "--count", "5",
            "--kinds", "NS",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2


def test_vanilla_run_writes_report_and_csv(workdir):
    rc, out = run_mode(workdir, "vanilla", "vanilla_out")
    assert rc == 0
    report = load_json(out / "report_vanilla_r0.json")
    assert report["technique"] == "vanilla"
    assert report["tested_count"] == 30
    assert 0.0 <= report["mutation_score"] <= 1.0
    with open(out / "verdicts_vanilla_r0.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 30
    assert set(rows[0]) == {
        "mutant_id", "kind", "status", "killing_count", "provenance", "representative_id",
    }


def test_spectral_run_and_determinism(workdir):
    rc1, out1 = run_mode(workdir, "spectral", "spec_out1")
    rc2, out2 = run_mode(workdir, "spectral", "spec_out2")
    assert rc1 == rc2 == 0
    a = load_json(out1 / "report_spectral_r0.json")
    b = load_json(out2 / "report_spectral_r0.json")
    assert strip_timing(a) == strip_timing(b)
    assert json.dumps(strip_timing(a), sort_keys=True) == json.dumps(
        strip_timing(b), sort_keys=True
    )
    assert a["clustering"]["tau"] is not None
    assert a["search"]["rounds"][0]["iterations"] <= 25


def test_fixed_tau_degenerate_matches_vanilla(workdir):
    # at the singleton-forcing threshold only behaviourally identical mutants
    # still merge, so propagation is exact and the score matches vanilla
    rc_v, out_v = run_mode(workdir, "vanilla", "tau_vanilla")
    rc_s, out_s = run_mode(
        workdir, "spectral", "tau_spectral", ("--x", "2", "--tau", "0.99999")
    )
    assert rc_v == rc_s == 0
    vanilla = load_json(out_v / "report_vanilla_r0.json")
    spectral = load_json(out_s / "report_spectral_r0.json")
    assert spectral["mutation_score"] == vanilla["mutation_score"]
    assert spectral["killing_counts"] == vanilla["killing_counts"]


def test_rss_requires_x(workdir):
    rc, _ = run_mode(workdir, "rss", "rss_nox")
    assert rc == 2


def test_baseline_modes_run(workdir):
    for mode, extra in (("rms", ()), ("bss", ()), ("rss", ("--x", "2"))):
        rc, out = run_mode(workdir, mode, f"{mode}_out", extra)
        assert rc == 0, mode
        report = load_json(out / f"report_{mode}_r0.json")
        assert report["technique"] == mode


def test_not_satisfiable_exit_code(workdir, capsys):
    rc, out = run_mode(
        workdir,
        "spectral",
        "unsat_out",
        ("--reduction-lo", "0.99", "--reduction-hi", "0.999"),
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "Mutant reduction goal not satisfiable" in err
    report = load_json(out / "report_spectral_r0.json")
    assert report["satisfied"] is False


def test_compare_refuses_mismatched_inputs(workdir, tmp_path):
    root, model_path, data_path, manifest = workdir
    rc, out_v = run_mode(workdir, "vanilla", "cmp_vanilla")
    rc2, out_s = run_mode(workdir, "spectral", "cmp_spectral")
    assert rc == rc2 == 0
    vanilla_report = out_v / "report_vanilla_r0.json"
    spectral_report = out_s / "report_spectral_r0.json"
    rc3 = main(
        [
            "compare",
            "--vanilla", str(vanilla_report),
            str(spectral_report),
            "--out", str(tmp_path),
        ]
    )
    assert rc3 == 0
    with open(tmp_path / "compare.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["technique"] == "spectral"
    # tamper with the hash: comparison must refuse
    payload = load_json(spectral_report)
    payload["inputs_sha256"]["dataset"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    rc4 = main(["compare", "--vanilla", str(vanilla_report), str(tampered)])
    assert rc4 == 2


def test_compare_self_zero_loss(workdir, tmp_path):
    rc, out_v = run_mode(workdir, "vanilla", "self_vanilla")
    assert rc == 0
    report = out_v / "report_vanilla_r0.json"
    rc2 = main(
        ["compare", "--vanilla", str(report), str(report), "--out", str(tmp_path)]
    )
    assert rc2 == 0
    with open(tmp_path / "compare.csv") as f:
        row = list(csv.DictReader(f))[0]
    assert float(row["loss_avg"]) == 0.0
    assert float(row["speed_up_avg"]) == 0.0


def test_report_score_recomputable_from_counts(workdir):
    rc, out = run_mode(workdir, "vanilla", "recompute_out")
    assert rc == 0
    report = load_json(out / "report_vanilla_r0.json")
    counts = report["killing_counts"]
    recomputed = sum(counts.values()) / (len(counts) * report["label_count"])
    assert recomputed == report["mutation_score"]


def test_sweep_row_count(workdir):
    root, model_path, data_path, manifest = workdir
    out = root / "sweep_out"
    rc = main(
        [
            "sweep",
            "--model", str(model_path),
            "--dataset", str(data_path),
            "--manifest", str(manifest),
            "--x-grid", "1,2",
            "--tau-grid", "0.2,0.5,0.8",
            "--repeats", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 * 3 * 2
    with open(out / "rho.csv") as f:
        rho_rows = list(csv.DictReader(f))
    scopes = {r["scope"] for r in rho_rows}
    assert "pooled" in scopes and "repeat-0" in scopes


def test_show_config(capsys):
    rc = main(["show-config"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reduction_lo=0.26" in out
    assert "reduction_hi=0.56" in out
    assert "MUTSPECT_THREADS" not in out
    assert "threads" not in out


def test_show_config_output_parses_back_to_defaults(tmp_path, capsys):
    from mutspect.config import RunConfig, build_config, parse_config_file

    assert main(["show-config"]) == 0
    path = tmp_path / "defaults.cfg"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert build_config(parse_config_file(path)) == RunConfig()


def test_missing_input_is_exit_2(tmp_path):
    rc = main(
        [
            "run",
            "--model", str(tmp_path / "nope.fcnn"),
            "--dataset", str(tmp_path / "nope.fdst"),
            "--manifest", str(tmp_path / "nope.json"),
            "--mode", "vanilla",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2


def test_config_file_with_flag_override(workdir, tmp_path):
    root, model_path, data_path, manifest = workdir
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"model={model_path}\n"
        f"dataset={data_path}\n"
        f"manifest={manifest}\n"
        "mode=vanilla\n"
        "repeats=1\n"
        "# comment line\n"
    )
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "report_vanilla_r0.json").exists()


def write_bad_manifest(manifest, tmp_path, case):
    """A copy of ``manifest`` broken in one way; returns its path."""
    text = manifest.read_text()
    payload = json.loads(text)
    if case == "bad-json":
        text = text[: len(text) // 2]
    elif case == "no-original-hash":
        del payload["original_sha256"]
        text = json.dumps(payload)
    else:  # unknown-kind
        payload["mutants"][0]["kind"] = "XX"
        text = json.dumps(payload)
    path = tmp_path / f"{case}.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("case", ["bad-json", "no-original-hash", "unknown-kind"])
def test_corrupt_manifest_is_exit_2(workdir, tmp_path, capsys, case):
    from mutspect.errors import MutspectError
    from mutspect.model import load_model
    from mutspect.mutants import load_manifest

    root, model_path, data_path, manifest = workdir
    bad = write_bad_manifest(manifest, tmp_path, case)
    with pytest.raises(MutspectError):
        load_manifest(bad, load_model(model_path))
    rc = main(["run", "--model", str(model_path), "--dataset", str(data_path),
               "--manifest", str(bad), "--mode", "vanilla", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["repeats=abc", "tau=high", "threads=2"])
def test_bad_config_value_is_exit_2(workdir, tmp_path, capsys, line):
    root, model_path, data_path, manifest = workdir
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode=vanilla\n{line}\n")
    rc = main(["run", "--config", str(cfg), "--model", str(model_path),
               "--dataset", str(data_path), "--manifest", str(manifest),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "run.cfg:2" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--x-grid", "a,b"], ["--tau-grid", "0.5,x"],
                                  ["--x-grid", ""], ["--tau-grid", ""]])
def test_bad_sweep_grid_is_exit_2(workdir, tmp_path, capsys, grid):
    root, model_path, data_path, manifest = workdir
    rc = main(["sweep", "--model", str(model_path), "--dataset", str(data_path),
               "--manifest", str(manifest), "--out", str(tmp_path), *grid])
    assert rc == 2
    assert "comma lists of numbers" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def generate_manifest(model_path, out, *extra) -> bytes:
    assert main(["generate", "--model", str(model_path), "--count", "8",
                 "--out", str(out), *extra]) == 0
    return (out / "manifest.json").read_bytes()


def test_generate_reads_generation_seed_from_config(workdir, tmp_path):
    root, model_path, _, _ = workdir
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("generation_seed=7\n")
    from_file = generate_manifest(model_path, tmp_path / "file", "--config", str(cfg))
    from_flag = generate_manifest(model_path, tmp_path / "flag", "--seed", "7")
    assert from_file == from_flag
    assert json.loads(from_file)["generation_seed"] == 7
    # an explicit --seed still overrides the file
    overridden = generate_manifest(model_path, tmp_path / "both", "--config", str(cfg),
                                   "--seed", "3")
    assert overridden == generate_manifest(model_path, tmp_path / "three", "--seed", "3")
    assert overridden != from_file


@pytest.mark.parametrize("key, value, message", [
    ("rms_fraction", 0.0, "rms fraction must lie in (0, 1]"),
    ("rms_fraction", 1.5, "rms fraction must lie in (0, 1]"),
    ("bss_threshold", 0, "bss threshold must be at least 1"),
], ids=["rms-zero", "rms-above-one", "bss-zero"])
def test_out_of_range_baseline_parameter(tmp_path, capsys, key, value, message):
    from mutspect.config import build_config, parse_config_file
    from mutspect.errors import ParameterError

    with pytest.raises(ParameterError, match=re.escape(message)):
        build_config(**{key: value})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    with pytest.raises(ParameterError, match=re.escape(message)):
        build_config(parse_config_file(cfg))
    # rejected before any input is loaded: the input paths do not exist
    missing = ["--model", str(tmp_path / "nope.fcnn"), "--dataset", str(tmp_path / "nope.fdst"),
               "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    flag = "--" + key.replace("_", "-")
    for argv in (["--config", str(cfg)], [flag, str(value)]):
        assert main(["run", "--mode", "vanilla", *argv, *missing]) == 2
        assert message in capsys.readouterr().err


def test_report_names_quarantined_mutants(workdir, monkeypatch):
    # a manifest rebuilds operator mutants only, so the manifest loader is
    # wrapped to add the two exploding mutants to the loaded set
    import mutspect.cli as cli
    from mutspect.mutants import MutantSet, load_manifest

    def with_exploding(path, original):
        loaded = load_manifest(path, original)
        records = [*loaded.mutants, exploding_mutant(original, 31), exploding_mutant(original, 30)]
        return MutantSet(original, records, loaded.generation_seed)

    monkeypatch.setattr(cli, "load_manifest", with_exploding)
    for extra in ((), ("--x", "3", "--tau", "0.5")):
        rc, out = run_mode(workdir, "spectral", f"quarantine{len(extra)}", extra)
        assert rc == 0
        assert load_json(out / "report_spectral_r0.json")["quarantined"] == [30, 31]


def test_zero_width_layer_is_exit_2(workdir, tmp_path, capsys):
    root, model_path, data_path, manifest = workdir
    bad = tmp_path / "zero.fcnn"
    # one softmax layer of out_dim 0 over 8 inputs: no weights, no biases
    bad.write_bytes(b"FCNN" + struct.pack("<BI", 1, 1) + struct.pack("<III", 0, 8, 1))
    rc = main(["run", "--model", str(bad), "--dataset", str(data_path),
               "--manifest", str(manifest), "--mode", "vanilla", "--out", str(tmp_path)])
    assert rc == 2
    assert "layer 0:" in capsys.readouterr().err
