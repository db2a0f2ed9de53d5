"""Reading experiment configuration files."""

import pytest

from diffusion_forecast.evaluation import ExperimentConfig, load_config


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_values_take_the_type_of_their_key(tmp_path):
    path = write(tmp_path, "# desk run\n"
                           "with_ensemble = no\n"
                           "n_basis = 30  # small\n"
                           "dt = 0.25\n"
                           "\n"
                           "out_dir = runs/a b\n")
    config = load_config(path, base=ExperimentConfig(with_ensemble=True))
    assert config.with_ensemble is False
    assert config.n_basis == 30 and type(config.n_basis) is int
    assert config.dt == 0.25
    assert config.out_dir == "runs/a b"
    assert config.n_samples == ExperimentConfig().n_samples


@pytest.mark.parametrize("text, line, match", [
    ("n_basis = 30\nbasis_size = 4\n", 2, "unknown config key 'basis_size'"),
    ("n_basis = 30\n\nseed 4\n", 3, "expected 'key = value'"),
    ("dt = 0.1\nn_basis = abc\n", 2, "config key n_basis: expected int, got 'abc'"),
    ("dt = fast\n", 1, "config key dt: expected float, got 'fast'"),
    ("# flags\nwith_ensemble = maybe\n", 2, "config key with_ensemble: expected bool, got 'maybe'"),
], ids=["unknown-key", "no-equals", "bad-int", "bad-float", "bad-bool"])
def test_a_bad_line_is_named(tmp_path, text, line, match):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=match) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("text, where, match", [
    ("dt = 0.1\nn_basis = 0\n", ":2: ", "n_basis must be >= 1"),
    ("# run\nexperiment = circle\n", ":2: ", "unknown experiment 'circle'"),
    ("init_variance = -0.5\n", ":1: ", "init_variance must be positive"),
    # a check that ties two keys together names the file only
    ("n_samples = 100\nn_basis = 200\n", ": ", "n_basis cannot exceed n_samples"),
], ids=["below-minimum", "unknown-experiment", "not-positive", "cross-field"])
def test_a_rejected_value_is_located(tmp_path, text, where, match):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=match) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}{where}")


def test_keys_are_checked_together_after_the_last_line(tmp_path):
    # n_samples = 100 alone would put the base's n_basis = 400 above it
    config = load_config(write(tmp_path, "n_samples = 100\nn_basis = 50\n"))
    assert (config.n_samples, config.n_basis) == (100, 50)
