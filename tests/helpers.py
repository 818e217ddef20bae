"""Shared helpers for running assembly snippets in tests."""

from repro.asm import SectionLayout, assemble, parse_asm
from repro.machine import fr2355_board


def run_asm(source, entry="__start", frequency_mhz=24, max_instructions=2_000_000):
    """Assemble and run a bare-asm snippet on an FR2355 board."""
    program = parse_asm(source, entry=entry)
    image = assemble(
        program,
        SectionLayout(text=0x8000, rodata=0x9000, data=0x9800, bss=0x9C00),
    )
    board = fr2355_board(frequency_mhz=frequency_mhz).load(image)
    board.run(max_instructions=max_instructions)
    return board


#: Standard wrapper: set up stack, call main, emit R12, halt.
ASM_HARNESS = """
.func __start
    MOV #0x3000, SP
    CALL #main
    MOV R12, &0x0200
    MOV #1, &0x0202
.endfunc
"""


def run_main(body, **kwargs):
    """Run `body` (a .func main ... block) and return the debug words."""
    board = run_asm(ASM_HARNESS + body, **kwargs)
    return board.bus.debug_words


#: A short mini-C kernel (about 2.8K instructions on the baseline):
#: loops, a call, global array loads and stores.
LOOP_KERNEL = """
int table[8];

int mix(int x) {
    return (x << 1) ^ (x >> 3);
}

int main(void) {
    int acc = 1;
    for (int pass = 0; pass < 6; pass++) {
        for (int i = 0; i < 8; i++) {
            table[i] = mix(table[i] + acc);
            acc = acc + table[i];
        }
    }
    __debug_out(acc & 0xFFFF);
    return 0;
}
"""
