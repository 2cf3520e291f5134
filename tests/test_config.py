from dataclasses import fields
import math
from pathlib import Path

import pytest

from diskchain import ConfigError, SimConfig, load_config
from diskchain.config import _SCHEMA


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


def test_load_config_none_is_simconfig():
    assert load_config(None) == SimConfig()


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
    assert math.isclose(SimConfig().gate.D_g, 2.0 * math.pi * 2.87e9,
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the key table

_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]

# a legal value other than the default, for every key
_OTHER = {
    "radius": "2.5 um", "azimuthal_number": "50", "refractive_index": "2.5",
    "wavelength": "0.7 um", "solve_rows": "40 2.0", "l_over_r": "2.2",
    "g1": "1.1e10 rad_s", "g2": "0.8e10 rad_s", "delta_max": "2e12 rad_s",
    "omega_a0": "3e15 rad_s", "d_g": "1e10 rad_s", "epsilon": "0.02",
    "guard": "fixed", "samples": "600", "fixed_gap": "2e-11 s",
}

# a value each DiskGeometry / GateParams field rejects, by field name.  D_g
# only has to be finite, which the INI parser checks before the field does
_REJECTED = {
    "radius": "-1 um", "azimuthal_number": "0", "refractive_index": "0.5",
    "g1": "0 rad_s", "g2": "1e300 rad_s", "delta_max": "1e10 rad_s",
    "omega_a0": "-1 rad_s", "D_g": "nan rad_s", "epsilon": "-1",
    "guard": "sloppy", "fixed_gap": "-1 s", "samples": "1",
}


def _flat(cfg):
    """target -> value for every field of cfg, cfg.disk and cfg.gate."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in ("disk", "gate"):
            out.update({f"{f.name}.{g.name}": getattr(value, g.name)
                        for g in fields(value)})
        else:
            out[f.name] = value
    return out


def test_every_key_has_a_legal_other_value():
    assert sorted(_OTHER) == sorted(key for _, key in _KEYS)


@pytest.mark.parametrize("section, key", _KEYS)
def test_each_key_sets_exactly_its_own_field(tmp_path, section, key):
    cfg = load_config(write(tmp_path, f"[{section}]\n{key} = {_OTHER[key]}\n"))
    new, old = _flat(cfg), _flat(SimConfig())
    assert {t for t in new if new[t] != old[t]} == {_SCHEMA[section][key][2]}


def test_every_type_field_but_thickness_is_a_key():
    targets = {target for s, k in _KEYS for _, _, target in [_SCHEMA[s][k]]}
    assert set(_flat(SimConfig())) - targets == {"disk.thickness"}


@pytest.mark.parametrize("field", sorted(_REJECTED))
def test_field_errors_name_the_key_that_sets_them(tmp_path, field):
    (section, key), = [(s, k) for s, k in _KEYS
                       if _SCHEMA[s][k][2].rpartition(".")[2] == field]
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, f"[{section}]\n{key} = {_REJECTED[field]}\n"))
    assert str(exc.value).startswith(f"[{section}] {key}: ")


def test_readme_configuration_block_loads_and_names_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    load_config(write(tmp_path, block))
    named = {}
    for line in block.splitlines():
        if line.startswith("["):
            keys = named.setdefault(line.strip("[]"), [])
        elif line.strip():
            keys.append(line.split("=")[0].strip())
    assert named == {s: list(keys) for s, keys in _SCHEMA.items()}
