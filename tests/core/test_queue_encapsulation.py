"""``DeliveryQueue``'s private state stays inside ``core/buffers.py``.

The throughput model once bought speed by inlining ``try_append`` / ``pop``
against the queue's private fields — a second copy of the purge and
tombstone logic that had to track the first by hand.  This gate walks
every module under ``src/repro`` and fails on a reach into those fields
from outside: an access through anything but ``self``, or through ``self``
in a subclass of the queue.  (A class's own ``self._items`` is its
business.)
"""

import ast
import pathlib

import repro
from repro.core.buffers import DeliveryQueue

SRC = pathlib.Path(repro.__file__).parent
OWNER = SRC / "core" / "buffers.py"
PRIVATE = {
    "_items", "_mids", "_doomed", "_size", "_index", "_live_index", "_inert",
    "_remove_msgs", "_compact", "_reclaim_head",
}


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def reaches(tree):
    """``(line, expression)`` of every reach into the queue's private state."""
    found = []

    def visit(node, in_queue_subclass):
        if isinstance(node, ast.ClassDef):
            in_queue_subclass = any(
                "DeliveryQueue" in ast.unparse(base) for base in node.bases
            )
        if (
            isinstance(node, ast.Attribute)
            and node.attr in PRIVATE
            and (in_queue_subclass or not _is_self(node.value))
        ):
            found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, in_queue_subclass)

    visit(tree, False)
    return found


def test_no_module_reaches_into_the_queue():
    modules = sorted(SRC.rglob("*.py"))
    assert OWNER in modules and len(modules) > 50
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {expression}"
        for path in modules
        if path != OWNER
        for line, expression in reaches(ast.parse(path.read_text()))
    ]
    assert not offenders, "\n".join(offenders)


def test_the_gate_sees_what_it_should():
    sample = ast.parse(
        "class Model:\n"
        "    def step(self):\n"
        "        self._items.append(1)\n"          # own field: fine
        "        if self.queue._size < 3:\n"       # reach
        "            self.queue._compact()\n"      # reach
        "class Fast(DeliveryQueue):\n"
        "    def pop(self):\n"
        "        return self._items.pop(0)\n"      # reach, via subclassing
    )
    assert [line for line, _ in reaches(sample)] == [4, 5, 8]


def test_the_guarded_names_are_the_queues():
    for name in PRIVATE:
        assert name in DeliveryQueue.__slots__ or hasattr(DeliveryQueue, name), name
    hidden = {slot for slot in DeliveryQueue.__slots__ if slot.startswith("_")}
    assert hidden <= PRIVATE  # a new private slot joins the gate
