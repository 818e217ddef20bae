"""Structured assembly AST.

A :class:`Program` holds code as a list of :class:`Function` objects --
the unit SwapRAM caches at -- plus data items grouped into sections
(``rodata``, ``data``, ``bss``). Inside a function, items are a flat
sequence of :class:`Label`, :class:`~repro.isa.Instruction` and
:class:`SourceComment` entries; data sections hold :class:`Label` and
:class:`DataItem` entries.

Keeping functions structurally separate (rather than inferring
boundaries from labels) is what lets the instrumentation passes measure
function sizes, rewrite call sites, and relocate code safely.
"""

import copy
from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.instructions import Instruction

#: Section names used throughout the toolchain.
TEXT = "text"
RODATA = "rodata"
DATA = "data"
BSS = "bss"

DATA_SECTIONS = (RODATA, DATA, BSS)


@dataclass
class Label:
    """A named location. Label names are program-global."""

    name: str

    def __str__(self):
        return f"{self.name}:"


@dataclass
class SourceComment:
    """A comment carried through transformations for readable listings."""

    text: str

    def __str__(self):
        return f"; {self.text}"


@dataclass
class DataItem:
    """A data directive: ``kind`` is ``word``, ``byte`` or ``space``.

    * ``word`` / ``byte``: ``values`` is a list of ints or ``Sym``.
    * ``space``: ``values`` is ``[n_bytes]``.
    """

    kind: str
    values: list

    def size(self):
        """Encoded size in bytes."""
        if self.kind == "word":
            return 2 * len(self.values)
        if self.kind == "byte":
            return len(self.values)
        if self.kind == "space":
            return int(self.values[0])
        raise ValueError(f"unknown data kind: {self.kind}")

    def __str__(self):
        if self.kind == "space":
            return f".space {self.values[0]}"
        rendered = ", ".join(str(value) for value in self.values)
        return f".{self.kind} {rendered}"


@dataclass
class Function:
    """A contiguous, relocatable unit of code.

    ``blacklisted`` marks functions the SwapRAM user excluded from
    caching (paper §3.1); ``is_library`` tags code recovered from
    precompiled libraries via disassembly (paper §4, Library
    Instrumentation) -- behaviourally identical, tracked for reporting.
    """

    name: str
    items: List[object] = field(default_factory=list)
    blacklisted: bool = False
    is_library: bool = False

    def instructions(self):
        """Iterate the function's instructions in order."""
        return [item for item in self.items if isinstance(item, Instruction)]

    def labels(self):
        """Iterate the function's labels in order."""
        return [item for item in self.items if isinstance(item, Label)]

    def emit(self, item):
        """Append an item (instruction/label/comment)."""
        self.items.append(item)
        return item

    def __str__(self):
        lines = [f"{self.name}:"]
        for item in self.items:
            if isinstance(item, Label):
                lines.append(str(item))
            else:
                lines.append(f"    {item}")
        return "\n".join(lines)


@dataclass
class Program:
    """A complete assembly program prior to assembly.

    ``entry`` names the function control starts in (the generated crt0
    sets up the stack then transfers there). ``sections`` maps each data
    section name to its item list.
    """

    functions: List[Function] = field(default_factory=list)
    sections: dict = None
    entry: str = "main"

    def __post_init__(self):
        if self.sections is None:
            self.sections = {name: [] for name in DATA_SECTIONS}
        for name in DATA_SECTIONS:
            self.sections.setdefault(name, [])

    # -- lookups -------------------------------------------------------------

    def function(self, name):
        """Return the function called *name* or raise ``KeyError``."""
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function named {name!r}")

    def has_function(self, name):
        return any(function.name == name for function in self.functions)

    def function_names(self):
        return [function.name for function in self.functions]

    # -- construction ----------------------------------------------------------

    def add_function(self, name, blacklisted=False, is_library=False):
        """Create, register and return a new empty function."""
        if self.has_function(name):
            raise ValueError(f"duplicate function: {name}")
        function = Function(name, blacklisted=blacklisted, is_library=is_library)
        self.functions.append(function)
        return function

    def add_data(self, section, label, item):
        """Append a labeled :class:`DataItem` to *section*; returns label name."""
        if label is not None:
            self.sections[section].append(Label(label))
        self.sections[section].append(item)
        return label

    def clone(self):
        """Copy the program for a transformation pass to mutate.

        Every container is new, and so are labels, comments and data
        items (with their value lists); the frozen instructions, operands
        and symbols are shared, which is what makes this much cheaper
        than ``copy.deepcopy``. Any other item is deep-copied.
        """
        return Program(
            functions=[
                Function(
                    function.name,
                    [_clone_item(item) for item in function.items],
                    function.blacklisted,
                    function.is_library,
                )
                for function in self.functions
            ],
            sections={
                name: [_clone_item(item) for item in items]
                for name, items in self.sections.items()
            },
            entry=self.entry,
        )

    def __str__(self):
        chunks = []
        for section in DATA_SECTIONS:
            items = self.sections.get(section) or []
            if items:
                chunks.append(f".section .{section}")
                for item in items:
                    if isinstance(item, Label):
                        chunks.append(str(item))
                    else:
                        chunks.append(f"    {item}")
        chunks.append(".section .text")
        for function in self.functions:
            chunks.append(f".func {function.name}")
            chunks.append(str(function))
            chunks.append(".endfunc")
        return "\n".join(chunks)


def _clone_item(item):
    kind = type(item)
    if kind is Instruction:
        return item
    if kind is Label:
        return Label(item.name)
    if kind is SourceComment:
        return SourceComment(item.text)
    if kind is DataItem:
        return DataItem(item.kind, list(item.values))
    return copy.deepcopy(item)


def function_items(function):
    """Yield ``(index, item)`` pairs for in-place rewriting passes."""
    return list(enumerate(function.items))


def defined_labels(program: Program) -> set:
    """All label names defined anywhere in *program* (functions + data)."""
    names = set()
    for function in program.functions:
        names.add(function.name)
        for label in function.labels():
            names.add(label.name)
    for items in program.sections.values():
        for item in items:
            if isinstance(item, Label):
                names.add(item.name)
    return names


def find_label_index(function: Function, name: str) -> Optional[int]:
    """Index of label *name* inside *function*, or None."""
    for index, item in enumerate(function.items):
        if isinstance(item, Label) and item.name == name:
            return index
    return None
