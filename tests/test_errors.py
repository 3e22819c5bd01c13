import inspect
import pickle

import pytest

from queuecast import cli
from queuecast import errors
from queuecast.errors import ConfigError, DataError, NumericalError, QueuecastError


def test_one_class_per_exit_code():
    # a fault is told apart by its message, not by a narrower class
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {"QueuecastError", "ConfigError", "DataError", "NumericalError"}
    for family in (ConfigError, DataError, NumericalError):
        assert family.__bases__ == (QueuecastError,)


@pytest.mark.parametrize(
    "exc",
    [DataError("negative size -3").at_line(7).in_file("day.csv"),
     DataError("timestamp decreases", 2), ConfigError("levels must be >= 1"),
     NumericalError("need at least 10 points, got 4")],
    ids=["data-positioned-named", "data-line", "config", "numerical"],
)
def test_error_survives_pickling(exc):
    # a pool worker's error crosses to the parent pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert (getattr(back, "line_no", None), getattr(back, "path", None)) == (
        getattr(exc, "line_no", None), getattr(exc, "path", None))


@pytest.mark.parametrize(
    "error, code, prefix",
    [(ConfigError, 2, "config error: "), (DataError, 3, "data error: "),
     (NumericalError, 4, "numerical error: ")],
)
def test_cli_maps_each_family_to_its_exit_code(tmp_path, monkeypatch, capsys, error, code,
                                               prefix):
    def stage(cfg):
        raise error("the fault")

    monkeypatch.setitem(cli.COMMANDS, "fit", stage)
    assert cli.main(["fit", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{prefix}the fault\n"
