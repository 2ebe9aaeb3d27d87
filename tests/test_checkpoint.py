"""The shared writers: whole-file replacement, the text policy, and the rule
that no other module opens a file for writing."""

import re
from pathlib import Path

import pytest

import lctx
from lctx.checkpoint import write_csv, write_text

SRC = Path(lctx.__file__).parent


def test_write_csv_uses_the_csv_defaults_and_escapes_a_lone_surrogate(tmp_path):
    write_csv(tmp_path / "t.csv", ["reason", "count"],
              [["UNKNOWN_KIND:\ud800civil", 1], ['a "quoted", cell', 2.5]])
    assert (tmp_path / "t.csv").read_bytes() == (
        b'reason,count\r\nUNKNOWN_KIND:\\ud800civil,1\r\n"a ""quoted"", cell",2.5\r\n')


def test_write_csv_rows_that_raise_keep_the_earlier_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [[1]])
    before = path.read_bytes()

    def rows():
        yield [2]
        raise RuntimeError("cut short")

    with pytest.raises(RuntimeError):
        write_csv(path, ["a"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_text_encode_error_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "t.txt"
    write_text(path, "甲\n")
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "乙\ud800\n")
    assert path.read_bytes() == "甲\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]


# open() in a write, append, create or update mode, and the other ways to
# open a file for writing; only lctx.checkpoint, the writer every output goes
# through, may do these. np.save given a path opens the file itself; given
# the handle that checkpoint.replacing yields (fh by convention) it does not.
_WRITES = re.compile(r"""open\((?:[^()]|\([^()]*\))*?['"][rbt]*[wax+][rwxabt+]*['"]"""
                     r"""|\.write_text\(|\.write_bytes\(|np\.save\w*\((?!fh,)""")


def test_only_the_checkpoint_module_writes_files():
    offenders = [f"{path.relative_to(SRC)}: {m.group(0)!r}"
                 for path in sorted(SRC.rglob("*.py")) if path.name != "checkpoint.py"
                 for m in _WRITES.finditer(path.read_text(encoding="utf-8"))]
    assert offenders == []
    assert _WRITES.search((SRC / "checkpoint.py").read_text(encoding="utf-8"))
