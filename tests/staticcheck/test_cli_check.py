"""The ``repro check`` subcommand: formats, rule selection, exit codes."""

import json
import textwrap

from repro.cli import main

VIOLATION = """
    import random

    def jitter():
        return random.random()
"""

CLEAN = """
    def pure(seed):
        return seed * 2
"""


def write(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


class TestCheckCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = write(tmp_path, CLEAN)
        assert main(["check", target]) == 0
        out = capsys.readouterr().out
        assert "1 file(s) checked: 0 finding(s)" in out

    def test_violation_exits_one_and_prints_location(self, tmp_path, capsys):
        target = write(tmp_path, VIOLATION)
        assert main(["check", target]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "module.py:5:" in out

    def test_json_format(self, tmp_path, capsys):
        target = write(tmp_path, VIOLATION)
        assert main(["check", target, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["findings"][0]["rule"] == "R001"

    def test_rules_selection_skips_other_rules(self, tmp_path, capsys):
        target = write(tmp_path, VIOLATION)
        assert main(["check", target, "--rules", "R002,R005"]) == 0
        assert main(["check", target, "--rules", "R001"]) == 1

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = write(tmp_path, CLEAN)
        assert main(["check", target, "--rules", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert main(["check", str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005", "R006", "R007"):
            assert rule_id in out

    def test_show_suppressed_prints_reason(self, tmp_path, capsys):
        target = write(tmp_path, """
            import random

            def jitter():
                return random.random()  # repro: allow[R001] demo reason
        """)
        assert main(["check", target, "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "suppressed (demo reason)" in out
