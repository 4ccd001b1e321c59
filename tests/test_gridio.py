"""Deterministic CSV emission."""

from semiphase.gridio import write_csv


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
