import json
import math

import pytest

from nonlocal_bbm.cli import ConfigError, compare_golden, main, parse_config


def _write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _coarse_quad():
    return {
        "inner_shells": 16, "outer_shells": 10,
        "gauss_order": 10, "sphere_order": 48,
        "target_rel_error": 1e-2,
    }


class TestParseConfig:
    def test_minimal_valid_fills_defaults(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path / "c.json", {
            "dimension": 2, "field": {"name": "bump"},
        }))
        assert cfg.dimension == 2
        assert cfg.schedule.values[-1] == 0.999
        assert cfg.mode == "sweep"
        assert cfg.points == ((0.0, 0.0),)
        assert cfg.quadrature.inner_shells == 40

    def test_alpha_one_rejected_naming_field(self, tmp_path):
        with pytest.raises(ConfigError, match="schedule"):
            parse_config(_write_config(tmp_path / "c.json", {
                "dimension": 2, "field": {"name": "bump"},
                "schedule": [0.5, 1.0],
            }))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha_max"):
            parse_config(_write_config(tmp_path / "c.json", {
                "dimension": 2, "field": {"name": "bump"}, "alpha_max": 0.9,
            }))

    def test_bad_dimension(self, tmp_path):
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(_write_config(tmp_path / "c.json", {"dimension": 4}))

    def test_bad_point_length(self, tmp_path):
        with pytest.raises(ConfigError, match="points"):
            parse_config(_write_config(tmp_path / "c.json", {
                "dimension": 2, "points": [[0.1]],
            }))

    def test_bad_p(self, tmp_path):
        with pytest.raises(ConfigError, match="'p'"):
            parse_config(_write_config(tmp_path / "c.json", {
                "dimension": 2, "p": 0.5,
            }))

    def test_unknown_quadrature_key(self, tmp_path):
        with pytest.raises(ConfigError, match="quadrature"):
            parse_config(_write_config(tmp_path / "c.json", {
                "dimension": 2, "quadrature": {"shells": 10},
            }))

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_quad_preset_overrides(self, tmp_path):
        path = _write_config(tmp_path / "c.json", {"dimension": 2})
        cfg = parse_config(path, quad_preset="fast")
        assert cfg.quadrature.inner_shells == 12


def test_constants_mode_emits_known_values(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "mode": "constants",
        "outputs": {"csv": "out.csv", "json": "out.json"},
    })
    code = main(["constants", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    rows = {line.split(",")[0]: line.split(",") for line in text.splitlines()[1:]}
    assert float(rows["constant:K_n:n=2"][3]) == pytest.approx(4.0, abs=1e-12)
    riesz_rows = [
        line for line in text.splitlines()[1:]
        if line.startswith("constant:riesz_norm:n=2,1,")
    ]
    assert riesz_rows
    assert float(riesz_rows[0].split(",")[3]) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-12
    )


def test_sweep_zero_field_all_zero_rows_exit_zero(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "field": {"name": "zero"},
        "mode": "sweep", "sweep_kind": "pointwise",
        "points": [[0.0, 0.0]],
        "schedule": [0.7, 0.99],
        "quadrature": _coarse_quad(),
        "outputs": {"csv": "z.csv", "json": "z.json"},
    })
    code = main(["sweep", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "z.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert lines
    for line in lines:
        cols = line.split(",")
        assert float(cols[3]) == 0.0
        assert float(cols[5]) == 0.0


def test_sweep_threads_do_not_change_bytes(tmp_path):
    doc = {
        "dimension": 2, "field": {"name": "bump"},
        "mode": "sweep", "sweep_kind": "pointwise",
        "points": [[0.2, 0.1], [0.5, 0.0], [0.0, 0.3]],
        "schedule": [0.9, 0.99],
        "quadrature": _coarse_quad(),
        "outputs": {"csv": "r.csv", "json": "r.json"},
    }
    cfgp = _write_config(tmp_path / "c.json", doc)
    outs = []
    for threads, sub in (("1", "a"), ("8", "b"), ("8", "c")):
        out = tmp_path / sub
        assert main(["sweep", "--config", cfgp, "--out", str(out),
                     "--threads", threads]) == 0
        outs.append((out / "r.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_audit_coarse_quadrature_flags_nonconvergence(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "field": {"name": "bump"},
        "mode": "audit",
        "points": [[0.2, 0.1]],
        "schedule": [0.7, 0.99],
        "quadrature": {
            "inner_shells": 8, "outer_shells": 6,
            "gauss_order": 8, "sphere_order": 16,
            "target_rel_error": 1e-9,
        },
        "outputs": {"csv": "a.csv", "json": "a.json"},
    })
    code = main(["audit", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 1
    lines = (tmp_path / "a.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert any(line.split(",")[-1] == "0" for line in lines)


def test_json_summary_round_trips(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "field": {"name": "zero"},
        "mode": "sweep", "sweep_kind": "pointwise",
        "points": [[0.0, 0.0]], "schedule": [0.7, 0.99],
        "quadrature": _coarse_quad(),
        "outputs": {"csv": "s.csv", "json": "s.json"},
    })
    main(["sweep", "--config", cfgp, "--out", str(tmp_path)])
    text = (tmp_path / "s.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    assert set(doc) == {"version", "config_hash", "cases", "fits", "audits"}
    assert json.loads(json.dumps(doc)) == doc


def test_config_error_exit_code(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {"dimension": 9})
    assert main(["sweep", "--config", cfgp]) == 2


def _expect_config_error(tmp_path, capsys, command, doc, names):
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "schedule": [0.9, 0.99], "quadrature": _coarse_quad(),
        "outputs": {"csv": "r.csv", "json": "r.json"}, **doc,
    })
    assert main([command, "--config", cfgp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for name in names:
        assert name in err
    assert not (tmp_path / "r.csv").exists()


def test_non_finite_point_is_config_error(tmp_path, capsys):
    _expect_config_error(tmp_path, capsys, "sweep", {
        "field": {"name": "bump"}, "points": [[0.1, 0.0], [float("nan"), 0.0]],
    }, ["points[1]"])


def test_unknown_field_name_is_config_error(tmp_path, capsys):
    _expect_config_error(tmp_path, capsys, "eval", {
        "field": {"name": "nope"}, "points": [[0.1, 0.0]],
    }, ["'field'", "'nope'"])


def test_unknown_field_param_is_config_error(tmp_path, capsys):
    _expect_config_error(tmp_path, capsys, "sweep", {
        "field": {"name": "bump", "params": {"scael": 2}}, "points": [[0.1, 0.0]],
    }, ["'field'", "'scael'"])


class TestCompareGolden:
    def _report(self, tmp_path):
        cfgp = _write_config(tmp_path / "c.json", {
            "dimension": 2, "field": {"name": "zero"},
            "mode": "sweep", "sweep_kind": "pointwise",
            "points": [[0.0, 0.0]], "schedule": [0.7, 0.99],
            "quadrature": _coarse_quad(),
            "outputs": {"csv": "g.csv", "json": "g.json"},
        })
        main(["sweep", "--config", cfgp, "--out", str(tmp_path)])
        return tmp_path / "g.csv"

    def test_self_comparison(self, tmp_path):
        p = self._report(tmp_path)
        code, messages = compare_golden(str(p), str(p))
        assert code == 0 and not messages

    def test_perturbed_value(self, tmp_path):
        p = self._report(tmp_path)
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        cols = lines[1].rstrip("\n").split(",")
        cols[3] = "0.5"
        other = tmp_path / "perturbed.csv"
        other.write_text(lines[0] + ",".join(cols) + "\n" + "".join(lines[2:]),
                         encoding="utf-8")
        code, messages = compare_golden(str(p), str(other), atol=1e-12)
        assert code == 1
        assert any("value" in m for m in messages)

    def test_missing_row(self, tmp_path):
        p = self._report(tmp_path)
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        other = tmp_path / "short.csv"
        other.write_text("".join(lines[:-1]), encoding="utf-8")
        code, messages = compare_golden(str(other), str(p))
        assert code == 1
        assert any("missing" in m for m in messages)

    def test_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("no,such,columns\n", encoding="utf-8")
        p = self._report(tmp_path)
        code, _ = compare_golden(str(bad), str(p))
        assert code == 2

    def test_golden_dir_env(self, tmp_path, monkeypatch):
        p = self._report(tmp_path)
        monkeypatch.setenv("NONLOCAL_BBM_GOLDEN_DIR", str(tmp_path))
        assert main(["compare-golden", str(p), "g.csv"]) == 0


def test_cli_entry_point_runs(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "mode": "constants",
        "outputs": {"csv": "k.csv", "json": "k.json"},
    })
    assert main(["constants", "--config", cfgp, "--out", str(tmp_path)]) == 0
