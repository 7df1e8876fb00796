"""Every documented ``repro`` command line parses to its verb.

The command lines are collected from the fenced code blocks of
README.md, EXPERIMENTS.md, DESIGN.md and the verify skill notes, from
the skill notes' inline code spans, and from the CI workflow's ``run:``
steps, with each step's shell variables (``ARGS="..."``) expanded, plus
the serve flags the benchmark harness passes through
``perfbench/serve_host.py``. A change to the command-line parser that
rejects or re-routes any of them fails here.
"""

import os
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

MARKDOWN = (
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    os.path.join(".claude", "skills", "verify", "SKILL.md"),
)

WORKFLOW = os.path.join(".github", "workflows", "ci.yml")

#: Shell operators that end a command.
_OPERATORS = {"&", "&&", "|", "||", ";", "(", ")", "<", ">"}

#: The serve command line of perfbench/workloads.py's ServeHost
#: (``--port 0 --pool N --cache-dir C --journal-dir J``).
PERFBENCH_SERVE = [
    "serve", "--port", "0", "--pool", "2",
    "--cache-dir", "cache", "--journal-dir", "journal",
]


def _tokens(text):
    """Shell tokens of ``text``, or ``None`` while a quote is open."""
    lexer = shlex.shlex(text, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    lexer.commenters = "#"
    try:
        return list(lexer)
    except ValueError:
        return None


def _commands(lines):
    """Join continued lines (a trailing backslash, an open quote) into
    whole commands, dropping a ``$ `` prompt."""
    pending = []
    for line in lines:
        line = line.strip()
        if not pending and line.startswith("$ "):
            line = line[2:]
        if line.endswith("\\"):
            pending.append(line[:-1])
            continue
        pending.append(line)
        text = " ".join(pending)
        if _tokens(text) is not None or len(pending) > 4:
            yield text
            pending = []


def _argv(text):
    """The ``repro`` argument vector of a shell command, or ``None``.

    Accepts ``repro ...`` and ``python -m repro ...``, behind
    environment assignments or inside ``$(...)``; the vector ends at
    the first shell operator.
    """
    tokens = _tokens(text) or ()
    for index, token in enumerate(tokens):
        if token != "repro":
            continue
        head = tokens[:index]
        if head[-2:] in (["python", "-m"], ["python3", "-m"]):
            head = head[:-2]
        if head and head[-1] not in _OPERATORS and "=" not in head[-1]:
            continue  # 'repro' mid-sentence, not a command
        argv = []
        for arg in tokens[index + 1:]:
            if arg in _OPERATORS:
                break
            argv.append(arg)
        return argv
    return None


def _markdown_commands(path):
    """Every line of the fenced code blocks and, in the skill notes,
    whose commands are written inline, every inline code span."""
    with open(os.path.join(ROOT, path)) as handle:
        text = handle.read()
    blocks = re.findall(
        r"^\s*```[^\n]*\n(.*?)^\s*```", text, flags=re.S | re.M,
    )
    commands = [
        command for block in blocks
        for command in _commands(block.splitlines())
    ]
    if path.endswith("SKILL.md"):
        prose = re.sub(r"```.*?```", "", text, flags=re.S)
        commands.extend(
            " ".join(span.split())
            for span in re.findall(r"`([^`]+)`", prose)
        )
    return commands


def _workflow_commands():
    """The workflow's command lines, with each ``NAME="value"`` shell
    assignment expanded in the lines after it."""
    with open(os.path.join(ROOT, WORKFLOW)) as handle:
        lines = handle.read().splitlines()
    variables = {}
    for command in _commands(lines):
        assignment = re.match(r'^([A-Z_]+)="([^"]*)"$', command)
        if assignment:
            variables[assignment.group(1)] = assignment.group(2)
            continue
        for name, value in variables.items():
            command = command.replace("$" + name, value)
        yield command


def _documented():
    found = []
    for path in MARKDOWN:
        for command in _markdown_commands(path):
            argv = _argv(command)
            if argv:
                found.append((path, argv))
    for command in _workflow_commands():
        argv = _argv(command)
        if argv:
            found.append((WORKFLOW, argv))
    found.append(("perfbench/workloads.py", PERFBENCH_SERVE))
    return found


DOCUMENTED = _documented()


def test_the_sources_document_every_verb_family():
    verbs = {argv[0] for _path, argv in DOCUMENTED}
    assert {
        "table2", "figure5", "headline", "all", "run", "chaos", "check",
        "serve", "submit", "status", "results", "cancel", "shutdown",
        "cache", "fsck",
    } <= verbs
    assert len(DOCUMENTED) >= 60


@pytest.mark.parametrize(
    "argv", [argv for _path, argv in DOCUMENTED],
    ids=["{}:{}".format(os.path.basename(path), " ".join(argv))
         for path, argv in DOCUMENTED],
)
def test_documented_command_parses_to_its_verb(argv):
    if "--help" in argv:
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 0
        return
    args = build_parser().parse_args(argv)
    assert args.verb == argv[0]
