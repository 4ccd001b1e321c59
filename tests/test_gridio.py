"""Binary grid format and CSV emission."""

import numpy as np
import pytest

from semiphase import ConfigurationError
from semiphase.gridio import (
    MAGIC,
    read_grid,
    write_csv,
    write_grid,
)


def test_magic_constant():
    assert MAGIC == b"RSGRID01"


def test_grid_roundtrip_2d(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((37, 53))
    path = tmp_path / "a.grid"
    write_grid(path, arr)
    back = read_grid(path)
    assert back.shape == (37, 53)
    assert np.array_equal(back, arr)


def test_grid_roundtrip_1d_as_row(tmp_path):
    arr = np.linspace(-1, 1, 17)
    path = tmp_path / "b.grid"
    write_grid(path, arr)
    back = read_grid(path)
    assert back.shape == (1, 17)
    assert np.array_equal(back[0], arr)


def test_grid_header_layout(tmp_path):
    path = tmp_path / "c.grid"
    write_grid(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 3
    assert len(raw) == 32 + 8 * 6


def test_grid_bad_magic_rejected(tmp_path):
    path = tmp_path / "d.grid"
    write_grid(path, np.ones((2, 2)))
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTAGRID"
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError):
        read_grid(path)


def test_grid_truncated_rejected(tmp_path):
    path = tmp_path / "e.grid"
    write_grid(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigurationError):
        read_grid(path)


def test_grid_rejects_3d(tmp_path):
    with pytest.raises(ConfigurationError):
        write_grid(tmp_path / "f.grid", np.zeros((2, 2, 2)))


def test_write_csv_deterministic_bytes(tmp_path):
    rows = [(0.1, 1.25, "even"), (0.01, 2.5, "odd")]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["eps", "value", "tag"], rows)
    write_csv(p2, ["eps", "value", "tag"], rows)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.splitlines()[0] == "eps,value,tag"
    assert len(text.splitlines()) == 3


def test_write_csv_full_float_precision(tmp_path):
    x = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "p.csv"
    write_csv(path, ["v"], [(x,)])
    val = float(path.read_text().splitlines()[1])
    assert val == x  # repr round-trips exactly
