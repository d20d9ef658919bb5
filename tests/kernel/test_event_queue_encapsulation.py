"""Only ``kernel/events.py`` knows the event queue's private layout.

``EventQueue.next_due_time`` is the one next-due derivation: the heap
head past cancelled entries, against the timer wheel's front.  Compiled
loops once restated that scan by reading ``events._heap`` and
``events._wheel`` directly (with ``_FAR`` / ``_heappop`` re-exported for
them), so a change to the queue had to be mirrored in every copy.  This
test parses every module under ``src/repro/`` and fails if one outside
``kernel/events.py`` reads ``_heap`` or ``_wheel``, or imports or
defines ``_FAR`` or ``_heappop``.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
OWNER = PACKAGE / "kernel" / "events.py"

PRIVATE_ATTRS = frozenset({"_heap", "_wheel"})
PRIVATE_NAMES = frozenset({"_FAR", "_heappop"})


def _violations(source, filename="<module>"):
    """(line, what) for each use of the queue's private layout."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_ATTRS:
            found.append((node.lineno, "reads ." + node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in PRIVATE_NAMES:
                    found.append((node.lineno, "imports " + alias.name))
        elif isinstance(node, ast.Name) and node.id in PRIVATE_NAMES \
                and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, "defines " + node.id))
    return found


def test_detector_flags_each_kind_of_leak():
    source = (
        "from repro.kernel.fastpath import FastIo, _FAR\n"
        "import heapq\n"
        "_heappop = heapq.heappop\n"
        "def scan(events):\n"
        "    heap = events._heap\n"
        "    return events._wheel._live\n"
    )
    assert [line for line, _what in _violations(source)] == [1, 3, 5, 6]
    assert _violations("def f(events):\n    return events.next_due_time()\n"
                       ) == []


def test_no_module_outside_events_reads_the_queue_layout():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert OWNER in modules
    assert len(modules) > 50  # the whole package was scanned
    leaks = []
    for path in modules:
        if path == OWNER:
            continue
        for line, what in _violations(path.read_text(), str(path)):
            leaks.append("%s:%d %s" % (path.relative_to(PACKAGE), line, what))
    assert leaks == []
