"""The "Console script chain" step of the CI workflow, run as tier-1 tests run.

CI runs that step with the installed `reseval` console script.  Here its
`run:` block runs under `bash -e` with `reseval` a shell function over
`python -m reseval.cli` from this checkout, so every extension of the
step is tested without an edit to this file.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import reseval

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
STEP = "- name: Console script chain"


def step_script(text: str, step: str = STEP) -> str:
    """The `run: |` block of the named step, dedented: its lines are those indented
    deeper than the `run:` key, blank lines included, up to the first that is not."""
    lines = text.splitlines()
    (start,) = [i for i, line in enumerate(lines) if line.strip() == step]
    run_line = lines[start + 1]
    if run_line.strip() != "run: |":
        raise ValueError(f"{step!r} is not followed by a 'run: |' block")
    key_indent = len(run_line) - len(run_line.lstrip())
    block = []
    for line in lines[start + 2 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= key_indent:
            break
        block.append(line)
    while block and not block[-1].strip():
        block.pop()
    indent = min(len(line) - len(line.lstrip()) for line in block if line.strip())
    return "\n".join(line[indent:] for line in block) + "\n"


def run_chain(script: str, cwd: Path) -> subprocess.CompletedProcess:
    """script under bash -e in cwd, with reseval bound to this interpreter's reseval.cli
    and mktemp making its directories under cwd."""
    src = os.path.dirname(os.path.dirname(reseval.__file__))
    env = {**os.environ, "TMPDIR": str(cwd),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    prelude = f'reseval() {{ {shlex.quote(sys.executable)} -m reseval.cli "$@"; }}\n'
    return subprocess.run(["bash", "-e", "-c", prelude + script], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def test_step_script_reads_the_block_by_its_indentation():
    text = "\n".join([
        "    steps:",
        "      - name: Console script chain",
        "        run: |",
        "          cd x",
        "",
        "          cat > m.json <<'EOF'",
        "            {\"a\": 1}",
        "          EOF",
        "      - name: Next",
        "        run: echo no",
    ])
    assert step_script(text) == "cd x\n\ncat > m.json <<'EOF'\n  {\"a\": 1}\nEOF\n"


def test_console_script_chain_runs(tmp_path):
    script = step_script(WORKFLOW.read_text())
    assert "reseval sweep" in script and "--jobs 2" in script
    proc = run_chain(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("line", ["reseval sweep --scenes nowhere --alphas 0 --out t.csv", "false"],
                         ids=["reseval-exit-2", "false"])
def test_a_failing_chain_line_fails_the_chain(tmp_path, line):
    """bash -e stops at the first line that exits nonzero, as the CI step does."""
    proc = run_chain(f"{line}\ntouch reached\n", tmp_path)
    assert proc.returncode != 0
    assert not (tmp_path / "reached").exists()
