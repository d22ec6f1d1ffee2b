import json
import math

import numpy as np
import pytest

from nonlocal_bbm import cli
from nonlocal_bbm.cli import ConfigError, compare_golden, main, parse_config
from nonlocal_bbm.limits import AlphaSchedule


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

    def test_quad_preset_changes_config_hash(self, tmp_path):
        path = _write_config(tmp_path / "c.json", {"dimension": 2})
        fast = parse_config(path, quad_preset="fast")
        default = parse_config(path, quad_preset="default")
        assert fast.raw == default.raw
        assert fast.config_hash != default.config_hash
        assert parse_config(path).config_hash == default.config_hash

    def test_composed_sweep_defaults_to_composed_schedule(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path / "c.json", {
            "dimension": 2, "sweep_kind": "composed",
        }))
        assert cfg.schedule == AlphaSchedule.composed_default()
        assert cfg.schedule.values[0] > 0.5


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


@pytest.mark.parametrize("command, kind", [
    ("constants", "pointwise"), ("eval", "pointwise"), ("sweep", "pointwise"),
    ("sweep", "seminorm"), ("audit", "pointwise"),
])
def test_exit_code_is_1_exactly_when_a_row_fails(tmp_path, command, kind):
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "field": {"name": "bump"}, "sweep_kind": kind,
        "points": [[0.2, 0.1]], "schedule": [0.7, 0.99],
        "quadrature": {
            "inner_shells": 8, "outer_shells": 6,
            "gauss_order": 8, "sphere_order": 16,
            "target_rel_error": 1e-9,
        },
        "outputs": {"csv": "e.csv", "json": "e.json"},
    })
    code = main([command, "--config", cfgp, "--out", str(tmp_path)])
    lines = (tmp_path / "e.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert code == (1 if any(line.split(",")[-1] == "0" for line in lines) else 0)
    assert code == (0 if command == "constants" else 1)


def test_eval_with_an_infinite_value_fails_its_row(tmp_path):
    # at p = 25 and the default quadrature the value overflows to inf, and a
    # non-finite value never counts as converged
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "field": {"name": "bump"}, "p": 25,
        "points": [[0.2, 0.1]], "schedule": [0.99],
        "outputs": {"csv": "e.csv", "json": "e.json"},
    })
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["eval", "--config", cfgp, "--out", str(tmp_path)])
    (line,) = (tmp_path / "e.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert line.split(",")[-1] == "0"
    assert code == 1


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


def test_composed_schedule_at_half_is_config_error(tmp_path, capsys):
    _expect_config_error(tmp_path, capsys, "sweep", {
        "field": {"name": "bump"}, "points": [[0.1, 0.0]],
        "sweep_kind": "composed", "schedule": [0.5, 0.99],
    }, ["'schedule'"])


@pytest.mark.parametrize("command, kind", [
    ("sweep", "pointwise"), ("sweep", "seminorm"), ("audit", "pointwise"),
])
def test_p_other_than_one_where_it_is_not_used_is_config_error(tmp_path, capsys, command, kind):
    # these modes compute at p = 1 only; a p = 2 there is not silently dropped
    _expect_config_error(tmp_path, capsys, command, {
        "field": {"name": "bump"}, "points": [[0.1, 0.0]], "sweep_kind": kind, "p": 2,
    }, ["'p'"])


@pytest.mark.parametrize("base", [{"params": {}}, "bump", {"name": "bump", "scale": 2}])
def test_malformed_modulated_base_is_config_error(tmp_path, capsys, base):
    _expect_config_error(tmp_path, capsys, "sweep", {
        "field": {"name": "modulated_bump", "params": {"base": base}}, "points": [[0.1, 0.0]],
    }, ["'field'", "'base'"])


def test_composed_sweep_at_large_p_runs(tmp_path):
    # K_{2,120} needs Gamma(61): beyond gamma_fn's range, formed from log-gamma
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "field": {"name": "bump"}, "points": [[0.2, 0.1]],
        "sweep_kind": "composed", "p": 120, "schedule": [0.9, 0.99],
        "quadrature": {
            "inner_shells": 8, "outer_shells": 6,
            "gauss_order": 8, "sphere_order": 16,
            "target_rel_error": 1e-2,
        },
        "outputs": {"csv": "r.csv", "json": "r.json"},
    })
    assert main(["sweep", "--config", cfgp, "--out", str(tmp_path)]) in (0, 1)
    rows = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2


@pytest.mark.parametrize("doc, name", [
    ({"p": float("nan")}, "'p'"),
    ({"p": float("inf")}, "'p'"),
    ({"field": {"name": "modulated_bump", "params": {"wavevector": [float("nan"), 0.0]}}},
     "'field'"),
])
def test_non_finite_number_is_config_error(tmp_path, capsys, doc, name):
    # json.load reads NaN and Infinity; none of them may reach a computation
    _expect_config_error(tmp_path, capsys, "eval", {
        "field": {"name": "bump"}, "points": [[0.1, 0.0]], **doc,
    }, [name])


@pytest.mark.parametrize("quad", [
    {"gauss_order": 16.5},
    {"target_rel_error": "x"},
    {"sphere_order": 64.5},
    {"inner_shells": 12.5},
    {"target_rel_error": -1},
    {"tail_policy": "analytic"},
])
def test_bad_quadrature_is_config_error(tmp_path, capsys, quad):
    _expect_config_error(tmp_path, capsys, "eval", {
        "field": {"name": "bump"}, "points": [[0.1, 0.0]],
        "quadrature": {**_coarse_quad(), **quad},
    }, ["quadrature", *quad])


@pytest.mark.parametrize("key", ["csv", "json"])
@pytest.mark.parametrize("path", [5, True, ""])
def test_bad_output_path_is_config_error(tmp_path, capsys, key, path):
    # an int or a bool would otherwise be opened as a file descriptor
    _expect_config_error(tmp_path, capsys, "eval", {
        "field": {"name": "bump"}, "points": [[0.1, 0.0]],
        "outputs": {"csv": "r.csv", "json": "r.json", key: path},
    }, [f"outputs.{key}"])


def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing" / "k.csv"
    cfgp = _write_config(tmp_path / "c.json", {
        "dimension": 2, "mode": "constants",
        "outputs": {"csv": str(missing), "json": str(tmp_path / "k.json")},
    })
    assert main(["constants", "--config", cfgp]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not missing.parent.exists()

    # a sweep ends before its first row is computed
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(cli, "_run_sweep", no_sweep)
    missing_json = tmp_path / "gone" / "s.json"
    cfgp = _write_config(tmp_path / "s.json", {
        "dimension": 2, "field": {"name": "bump"}, "points": [[0.1, 0.0]],
        "mode": "sweep", "sweep_kind": "pointwise", "quadrature": _coarse_quad(),
        "outputs": {"csv": str(tmp_path / "s.csv"), "json": str(missing_json)},
    })
    assert main(["sweep", "--config", cfgp]) == 2
    assert str(missing_json) in capsys.readouterr().err
    assert not missing_json.parent.exists()


def _zero_sweep_config(tmp_path):
    return _write_config(tmp_path / "c.json", {
        "dimension": 2, "field": {"name": "zero"},
        "mode": "sweep", "sweep_kind": "pointwise",
        "points": [[0.0, 0.0]], "schedule": [0.7, 0.99],
        "quadrature": _coarse_quad(),
        "outputs": {"csv": "s.csv", "json": "s.json"},
    })


def test_report_reads_the_summary_a_sweep_wrote_under_out(tmp_path, capsys):
    cfgp = _zero_sweep_config(tmp_path)
    out = tmp_path / "results"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "case pointwise:zero:n=2" in printed
    assert "alpha=0.99" in printed


def test_report_makes_no_directory(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["report", "--config", _zero_sweep_config(tmp_path),
                 "--out", str(missing)]) == 2
    assert str(missing / "s.json") in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("summary, field", [
    ([1, 2], "root"),
    ({"cases": [{"case_id": "c", "rows": [{"alpha": 0.9, "value": None}]}]},
     "cases[0].rows[0].value"),
    ({"cases": {"case_id": "c"}}, "cases"),
    ({"fits": [{"case_id": "c", "C": "x", "slope": 1.0}]}, "fits[0].C"),
])
def test_report_on_a_malformed_summary_exits_2(tmp_path, capsys, summary, field):
    cfgp = _zero_sweep_config(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps(summary), encoding="utf-8")
    assert main(["report", "--config", cfgp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "s.json") in err
    assert field in err


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
