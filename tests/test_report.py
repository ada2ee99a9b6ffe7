import os

import pytest

from riskratio import report
from riskratio.report import to_machine_json, write_atomic


class TestMachineJson:
    @pytest.mark.parametrize("x, text", [(float("nan"), "NaN"),
                                         (float("inf"), '"Infinity"'),
                                         (float("-inf"), '"-Infinity"')])
    def test_floats(self, x, text):
        assert report._fmt_float(x) == text

    def test_empty_containers(self):
        assert to_machine_json({"a": [], "b": {}, "c": ()}) == (
            '{\n  "a": [],\n  "b": {},\n  "c": []\n}\n')

    @pytest.mark.parametrize("value", [{1.0}, object()])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            to_machine_json({"a": [value]})


class TestWriteAtomic:
    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")
        with pytest.raises(TypeError):
            write_atomic(str(path), None)
        assert os.listdir(tmp_path) == ["out.json"]
        assert path.read_text() == "old\n"
