import re
import shlex
from pathlib import Path

from ccdiff.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs_and_meets_the_residual_promise(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert float(out.split("residual:", 1)[1].split()[0]) <= 1e-10


def test_readme_cli_tour_commands_parse():
    # Parsed only, not run: a flag the CLI no longer has fails here.
    tour = README.read_text().split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    script = "\n".join(re.findall(r"```bash\n(.*?)```", tour, re.S))
    commands = [shlex.split(line)[1:] for line in script.replace("\\\n", " ").splitlines()
                if line.startswith("ccdiff ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == {
        "schedule", "contract", "shortcut", "simulate", "ccdf", "phantom", "check-op"}
