"""Assembly AST utilities."""

from copy import deepcopy

import pytest

from repro.asm.ast import (
    DataItem,
    Function,
    Label,
    Program,
    SourceComment,
    defined_labels,
    find_label_index,
)
from repro.bench import QUICK_NAMES, get_benchmark
from repro.difftest.generator import generate_program
from repro.isa.instructions import Instruction
from repro.isa.operands import imm, reg
from repro.toolchain import PLANS, compile_program
from repro.toolchain.linker import link


def small_program():
    program = Program()
    function = program.add_function("main")
    function.emit(Instruction("MOV", src=imm(5), dst=reg(12)))
    function.emit(Label("loop"))
    function.emit(Instruction("JMP", target=0x8000))
    program.add_data("data", "counter", DataItem("word", [0]))
    return program


def test_function_queries():
    program = small_program()
    main = program.function("main")
    assert len(main.instructions()) == 2
    assert [label.name for label in main.labels()] == ["loop"]
    assert program.has_function("main")
    assert not program.has_function("other")
    with pytest.raises(KeyError):
        program.function("other")


def test_duplicate_function_rejected():
    program = small_program()
    with pytest.raises(ValueError):
        program.add_function("main")


def test_clone_is_deep():
    program = small_program()
    clone = program.clone()
    clone.function("main").items.clear()
    clone.sections["data"].clear()
    assert len(program.function("main").items) == 3
    assert program.sections["data"]


def test_clone_mutated_everywhere_leaves_the_original_untouched():
    program = small_program()
    program.add_data("rodata", "table", DataItem("byte", [1, 2, 3]))
    program.function("main").emit(SourceComment("tail"))
    before = str(program)
    clone = program.clone()
    for function in clone.functions:
        function.name += "_x"
        function.blacklisted = True
        for item in function.items:
            if isinstance(item, Label):
                item.name += "_x"
            elif isinstance(item, SourceComment):
                item.text += "_x"
        function.items.append(Label("extra"))
    clone.functions.append(Function("added"))
    for items in clone.sections.values():
        for item in items:
            if isinstance(item, Label):
                item.name += "_x"
            elif isinstance(item, DataItem):
                item.values.append(9)
                item.kind = "word"
        items.append(DataItem("space", [4]))
    clone.sections["extra"] = []
    clone.entry = "other"
    assert str(program) == before
    assert program.entry == "main"
    assert set(program.sections) == {"rodata", "data", "bss"}


@pytest.mark.parametrize(
    "source_id",
    [*QUICK_NAMES, *(f"gen{seed}" for seed in range(1, 9))],
)
def test_clone_links_like_a_deep_copy(source_id):
    if source_id.startswith("gen"):
        source = generate_program(int(source_id[3:])).render()
    else:
        source = get_benchmark(source_id).source
    program = compile_program(source)
    clone = program.clone()
    assert str(clone) == str(program)
    images = [
        link(copy, PLANS["unified"]).image for copy in (clone, deepcopy(program))
    ]
    assert images[0].chunks == images[1].chunks
    assert images[0].symbols == images[1].symbols


def test_defined_labels():
    program = small_program()
    labels = defined_labels(program)
    assert labels == {"main", "loop", "counter"}


def test_find_label_index():
    main = small_program().function("main")
    assert find_label_index(main, "loop") == 1
    assert find_label_index(main, "missing") is None


def test_data_item_sizes():
    assert DataItem("word", [1, 2, 3]).size() == 6
    assert DataItem("byte", [1, 2, 3]).size() == 3
    assert DataItem("space", [10]).size() == 10
    with pytest.raises(ValueError):
        DataItem("blob", [1]).size()


def test_program_str_roundtrips_through_parser():
    from repro.asm.parser import parse_asm

    program = small_program()
    text = str(program)
    reparsed = parse_asm(text)
    assert reparsed.function_names() == ["main"]
    assert len(reparsed.function("main").instructions()) == 2
    assert any(
        isinstance(item, Label) and item.name == "counter"
        for item in reparsed.sections["data"]
    )


def test_library_and_blacklist_flags():
    function = Function("helper", blacklisted=True, is_library=True)
    assert function.blacklisted and function.is_library
    program = Program()
    added = program.add_function("x", blacklisted=True)
    assert added.blacklisted


def test_custom_sections_preserved():
    program = Program()
    program.sections["custom"] = [Label("base"), DataItem("word", [1])]
    clone = program.clone()
    assert "custom" in clone.sections
    # The standard sections always exist.
    for name in ("rodata", "data", "bss"):
        assert name in clone.sections
