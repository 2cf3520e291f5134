import math

import pytest

from diskchain import ConfigError, config as config_module, default_config, \
    load_config
from diskchain.refdata import DEFAULT_CONFIG_TEXT


def write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


def test_defaults(config):
    assert config.disk.radius == 3.0
    assert config.disk.azimuthal_number == 40
    assert config.disk.refractive_index == 2.4
    assert config.wavelength == 0.637
    assert config.l_over_r == (2.01, 2.11, 2.21, 2.31, 2.41, 2.49)
    assert len(config.solve_rows) == 14
    assert config.solve_rows[0] == (40, 2.0)
    assert config.gate.g1 == 1.0e10
    assert config.gate.g2 == 0.9e10
    assert config.gate.delta_max == 1.0e12
    assert config.gate.omega_a0 == 2.95e15
    assert config.gate.guard == "calibrated"
    assert config.gate.samples == 1200


def test_spacings_scale_with_radius(config):
    want = tuple(x * 3.0 for x in config.l_over_r)
    assert config.spacings() == pytest.approx(want)


def test_default_config_is_load_config_none():
    a, b = default_config(), load_config(None)
    assert a.disk == b.disk and a.l_over_r == b.l_over_r


def test_default_parse_is_shared_but_never_mutated(tmp_path):
    # the embedded defaults are parsed once per process; a file that
    # overrides a key in every section must not leak into a later
    # defaults-only load, and neither must a caller's edit of its merged
    # values
    p = write(tmp_path, "[disk]\nradius = 2.5 um\n[chain]\nl_over_r = 2.2\n"
                        "[gate]\ng1 = 1.1e10 rad_s\n[pulses]\nsamples = 600\n")
    custom = load_config(p)
    assert (custom.disk.radius, custom.l_over_r, custom.gate.g1,
            custom.gate.samples) == (2.5, (2.2,), 1.1e10, 600)
    loaded = load_config(None)
    config_module._defaults.cache_clear()
    assert loaded == default_config()

    base = config_module._parse(DEFAULT_CONFIG_TEXT, "<defaults>")
    raw = {s: dict(base.items(s)) for s in base.sections()}
    for text in (None, "[gate]\ng1 = 1.1e10 rad_s\n"):
        merged = config_module._merged(text, "edit.ini")
        merged["gate"]["g1"] = "junk"
        merged["pulses"].clear()
        del merged["disk"]
        assert config_module._merged(None, "next.ini") == raw


def test_partial_file_merges_over_defaults(tmp_path):
    cfg = load_config(write(tmp_path, """
[disk]
radius = 2.0 um
azimuthal_number = 50
"""))
    assert cfg.disk.radius == 2.0
    assert cfg.disk.azimuthal_number == 50
    # everything not mentioned keeps its default
    assert cfg.disk.refractive_index == 2.4
    assert cfg.gate.g1 == 1.0e10
    assert cfg.spacings()[0] == pytest.approx(2.01 * 2.0)


def test_unit_suffixes_accepted_and_optional(tmp_path):
    cfg = load_config(write(tmp_path, """
[gate]
g1 = 1.1e10 rad_s
epsilon = 0.02
[pulses]
guard = fixed
fixed_gap = 2e-11 s
"""))
    assert cfg.gate.g1 == 1.1e10
    assert cfg.gate.epsilon == 0.02
    assert cfg.gate.fixed_gap == 2e-11


def test_inline_comments_stripped(tmp_path):
    cfg = load_config(write(tmp_path, "[disk]\nradius = 2.5 um  # tighter\n"))
    assert cfg.disk.radius == 2.5


def test_wrong_unit_suffix(tmp_path):
    with pytest.raises(ConfigError, match="unexpected unit"):
        load_config(write(tmp_path, "[disk]\nradius = 3.0 rad_s\n"))


def test_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section"):
        load_config(write(tmp_path, "[resonator]\nradius = 3.0\n"))


def test_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "[disk]\ncurvature = 3.0\n"))
    # [chain] bloch was parsed but never read, and is no longer a key
    with pytest.raises(ConfigError, match="unknown key 'bloch'"):
        load_config(write(tmp_path, "[chain]\nbloch = 0.0 rad\n"))


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="no sections"):
        load_config(write(tmp_path, "\n"))


def test_garbage_rejected(tmp_path):
    with pytest.raises(ConfigError, match="parse error"):
        load_config(write(tmp_path, "radius = 3.0\nnot an ini file"))


def test_not_a_number(tmp_path):
    with pytest.raises(ConfigError, match="not a number"):
        load_config(write(tmp_path, "[disk]\nradius = wide um\n"))


def test_physical_validation_becomes_config_error(tmp_path):
    with pytest.raises(ConfigError, match="n_c > 1 required"):
        load_config(write(tmp_path, "[disk]\nrefractive_index = 0.5\n"))


def test_bad_guard(tmp_path):
    with pytest.raises(ConfigError, match="calibrated"):
        load_config(write(tmp_path, "[pulses]\nguard = sloppy\n"))


def test_fractional_samples(tmp_path):
    with pytest.raises(ConfigError, match="integer required"):
        load_config(write(tmp_path, "[pulses]\nsamples = 2.5\n"))


def test_solve_rows_parsing(tmp_path):
    cfg = load_config(write(tmp_path, "[disk]\nsolve_rows = 40 2.0; 50 3.5\n"))
    assert cfg.solve_rows == ((40, 2.0), (50, 3.5))


@pytest.mark.parametrize("rows", ["40", "40 2.0 extra; 50 3.5", "40 x"])
def test_solve_rows_malformed(tmp_path, rows):
    with pytest.raises(ConfigError, match="solve_rows"):
        load_config(write(tmp_path, f"[disk]\nsolve_rows = {rows}\n"))


def test_l_over_r_malformed(tmp_path):
    with pytest.raises(ConfigError, match="l_over_r"):
        load_config(write(tmp_path, "[chain]\nl_over_r = 2.0, abc\n"))
    with pytest.raises(ConfigError, match="at least one"):
        load_config(write(tmp_path, "[chain]\nl_over_r = ,\n"))


def test_config_from_text_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, "[disk]\nradius = 2.5 um\n"))
    assert cfg.disk.radius == 2.5
    assert cfg.disk.azimuthal_number == 40


def test_d_g_override(tmp_path):
    cfg = load_config(write(tmp_path, "[gate]\nd_g = 1.0e10 rad_s\n"))
    assert cfg.gate.D_g == 1.0e10
    # and untouched configs keep the honest 2 pi x 2.87 GHz
    assert math.isclose(default_config().gate.D_g, 2.0 * math.pi * 2.87e9,
                        rel_tol=1e-12)
