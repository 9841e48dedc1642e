"""Unit tests for the kernel-style text assembler (repro.ebpf.text.easm).

Every instruction form is pinned to its encoding, and every library
program's ``.s`` source to a golden file of its pre-relocation bytes
(``library_golden/``).  Both references are the bytes the bpf_asm-style
assembler, the toolchain's previous front-end, produced for the same
programs, so the move to kernel syntax changed no program.
"""

from pathlib import Path

import pytest

import repro.net  # noqa: F401 -- registers the seg6 helpers by name
from repro.ebpf import encode_program, parse_asm
from repro.ebpf.errors import AsmError
from repro.ebpf.text import link
from repro.progs import library

EXIT = "9500000000000000"


def _insns(source: str):
    """Assemble a single-section easm source into linked instructions."""
    return link(parse_asm(source + "\n    exit")).insns


# --- instruction forms: every easm form has a pinned encoding ----------------

# (kernel syntax, bpf_asm mnemonic naming the case, encoding)
FORMS = [
    ("r3 = r7", "mov r3, r7", "bf73000000000000"),
    ("w3 = w7", "mov32 r3, r7", "bc73000000000000"),
    ("r2 = -42", "mov r2, -42", "b7020000d6ffffff"),
    ("w2 = 10", "mov32 r2, 10", "b40200000a000000"),
    ("r1 += r2", "add r1, r2", "0f21000000000000"),
    ("r1 -= 3", "sub r1, 3", "1701000003000000"),
    ("r4 *= 5", "mul r4, 5", "2704000005000000"),
    ("r4 /= 5", "div r4, 5", "3704000005000000"),
    ("r4 %= 5", "mod r4, 5", "9704000005000000"),
    ("r4 &= 0xff", "and r4, 0xff", "57040000ff000000"),
    ("r4 |= 1", "or r4, 1", "4704000001000000"),
    ("r4 ^= r5", "xor r4, r5", "af54000000000000"),
    ("r4 <<= 2", "lsh r4, 2", "6704000002000000"),
    ("r4 >>= 2", "rsh r4, 2", "7704000002000000"),
    ("r4 s>>= 2", "arsh r4, 2", "c704000002000000"),
    ("w4 += w5", "add32 r4, r5", "0c54000000000000"),
    ("w4 s>>= 1", "arsh32 r4, 1", "c404000001000000"),
    ("r2 = -r2", "neg r2", "8702000000000000"),
    ("w2 = -w2", "neg32 r2", "8402000000000000"),
    ("r4 = be16 r4", "be16 r4", "dc04000010000000"),
    ("r4 = be32 r4", "be32 r4", "dc04000020000000"),
    ("r4 = be64 r4", "be64 r4", "dc04000040000000"),
    ("r4 = le16 r4", "le16 r4", "d404000010000000"),
    ("r3 = *(u8 *)(r1 + 6)", "ldxb r3, [r1+6]", "7113060000000000"),
    ("r3 = *(u16 *)(r1 + 46)", "ldxh r3, [r1+46]", "69132e0000000000"),
    ("r3 = *(u32 *)(r1 + 0)", "ldxw r3, [r1+0]", "6113000000000000"),
    ("r3 = *(u64 *)(r10 - 8)", "ldxdw r3, [r10-8]", "79a3f8ff00000000"),
    ("*(u64 *)(r10 - 8) = r3", "stxdw [r10-8], r3", "7b3af8ff00000000"),
    ("*(u16 *)(r10 - 2) = r4", "stxh [r10-2], r4", "6b4afeff00000000"),
    ("*(u32 *)(r10 - 4) = 254", "stw [r10-4], 254", "620afcfffe000000"),
    ("*(u8 *)(r10 - 1) = 10", "stb [r10-1], 10", "720affff0a000000"),
    (
        "r1 = 0x1122334455 ll",
        "lddw r1, 0x1122334455",
        "18010000554433220000000011000000",
    ),
    ("call ktime_get_ns", "call ktime_get_ns", "8500000005000000"),
    ("call 5", "call 5", "8500000005000000"),
]


@pytest.mark.parametrize(
    ("easm", "want"),
    [(easm, want) for easm, _name, want in FORMS],
    ids=[f"{easm}-{name}" for easm, name, _want in FORMS],
)
def test_easm_form_matches_classic(easm, want):
    assert encode_program(_insns(f"    {easm}")).hex() == want + EXIT


# (operator, op name, `if r2 <op> 7 goto +1`, `if w2 <op> w3 goto +1`)
BRANCHES = [
    ("==", "jeq", "1502010007000000", "1e32010000000000"),
    ("!=", "jne", "5502010007000000", "5e32010000000000"),
    (">", "jgt", "2502010007000000", "2e32010000000000"),
    (">=", "jge", "3502010007000000", "3e32010000000000"),
    ("<", "jlt", "a502010007000000", "ae32010000000000"),
    ("<=", "jle", "b502010007000000", "be32010000000000"),
    ("s>", "jsgt", "6502010007000000", "6e32010000000000"),
    ("s>=", "jsge", "7502010007000000", "7e32010000000000"),
    ("s<", "jslt", "c502010007000000", "ce32010000000000"),
    ("s<=", "jsle", "d502010007000000", "de32010000000000"),
    ("&", "jset", "4502010007000000", "4e32010000000000"),
]


@pytest.mark.parametrize(
    ("cond", "want", "want32"),
    [(cond, want, want32) for cond, _name, want, want32 in BRANCHES],
    ids=[f"{cond}-{name}" for cond, name, _want, _want32 in BRANCHES],
)
def test_branches_match_classic(cond, want, want32):
    tail = "b700000000000000" + EXIT  # r0 = 0; out: exit
    got = _insns(f"    if r2 {cond} 7 goto out\n    r0 = 0\nout:")
    assert encode_program(got).hex() == want + tail
    # And the jmp32 variants via w registers.
    got32 = _insns(f"    if w2 {cond} w3 goto out\n    r0 = 0\nout:")
    assert encode_program(got32).hex() == want32 + tail


def test_goto_matches_ja():
    got = encode_program(_insns("    goto out\n    r0 = 1\nout:"))
    assert got.hex() == "0500010000000000" "b700000001000000" + EXIT


def test_map_symbol_lddw_matches_classic_map_ref():
    src = """
.map hits, array, key=4, value=8, entries=1
    r1 = hits ll
    exit
"""
    got = link(parse_asm(src)).insns
    assert encode_program(got).hex() == "18110000000000000000000000000000" + EXIT
    assert got[0].map_ref == "hits"


# --- directives ---------------------------------------------------------------


def test_map_directive_defaults_and_overrides():
    obj = parse_asm(
        """
.map a, array
.map b, hash, key=16, value=32, entries=64
.map c, perf_event_array, entries=2
    exit
"""
    )
    assert (obj.maps["a"].key_size, obj.maps["a"].value_size) == (4, 8)
    decl = obj.maps["b"]
    assert (decl.map_type, decl.key_size, decl.value_size, decl.max_entries) == (
        "hash",
        16,
        32,
        64,
    )
    assert obj.maps["c"].max_entries == 2


def test_hook_and_globl_directives():
    obj = parse_asm(
        """
.hook seg6local
.globl out
    r0 = 0
out:
    exit
"""
    )
    assert obj.hook == "seg6local"
    assert obj.globals == {"out"}


def test_sections_split_code():
    obj = parse_asm(
        """
    r0 = 0
    exit
.section tail
    r0 = 1
    exit
"""
    )
    assert list(obj.sections) == ["main", "tail"]
    assert obj.sections["main"].size == 2
    assert obj.sections["tail"].size == 2


def test_comments_and_blank_lines_ignored():
    insns = _insns(
        """
    ; semicolon comment
    // slash comment
    # hash comment
    r0 = 0  ; trailing
"""
    )
    assert len(insns) == 2  # mov + exit


# --- diagnostics --------------------------------------------------------------


@pytest.mark.parametrize(
    ("source", "message"),
    [
        ("    r11 = 0", "register r11 out of range"),
        ("    r1 = w2", "cannot mix r and w registers"),
        ("    w1 += r2", "cannot mix r and w registers"),
        ("    if r1 == w2 goto out", "cannot mix r and w registers"),
        ("    *(u64 *)(r10 - 8) += r1", "read-modify-write"),
        ("    *(u64 *)(r10 - 8) = w1", "stores take an r register"),
        ("    w1 = 0x11223344556677 ll", "lddw needs an r register"),
        ("    r1 = be16 r2", "byte swap must be in place"),
        ("    r1 = -r2", "negation must be in place"),
        ("    call no_such_helper", "unknown helper 'no_such_helper'"),
        ("    goto", "goto needs exactly one target"),
        ("    if r1 >> 2 goto out", "malformed branch"),
        ("    frobnicate r1", "cannot parse instruction"),
        (".section", ".section needs a name"),
        (".wat 3", "unknown directive"),
        (".map m", ".map needs at least a name and a type"),
        (".map m, ringbuf", "unknown map type"),
        (".map m, array, size=9", "bad map parameter"),
        (".hook xdp", "unknown hook"),
        ("x:\nx:", "duplicate label 'x'"),
        (".map m, array\n.map m, array", "duplicate map 'm'"),
        (".section a\n.section a", "duplicate section 'a'"),
    ],
)
def test_asm_errors(source, message):
    with pytest.raises(AsmError, match=message):
        parse_asm(source)


def test_errors_carry_line_numbers():
    with pytest.raises(AsmError, match="line 3"):
        parse_asm("    r0 = 0\n    r1 = 1\n    bogus!\n    exit")


# --- the library programs: .s sources hold their pinned bytes ---------------

LIBRARY = sorted(p.stem for p in library.ASM_DIR.glob("*.s"))
GOLDEN_DIR = Path(__file__).parent / "library_golden"
_GOLDEN_HEADER = (
    "# pre-relocation bytes of src/repro/progs/asm/{name}.s -- regenerate with:\n"
    "#   PYTHONPATH=src python -m pytest tests/ebpf/test_easm.py --regen-golden\n"
)


@pytest.mark.parametrize("name", LIBRARY)
def test_library_asm_editions_byte_identical(name, request):
    blob = encode_program(link(parse_asm(library.asm_text(name))).insns)
    text = _GOLDEN_HEADER.format(name=name) + "".join(
        blob[i : i + 8].hex() + "\n" for i in range(0, len(blob), 8)
    )
    golden = GOLDEN_DIR / f"{name}.expected"
    if request.config.getoption("--regen-golden"):
        golden.write_text(text)
        return
    assert text == golden.read_text(), (
        f"{name}.s no longer assembles to its golden bytes"
    )


def test_asm_prog_loads_and_runs():
    prog = library.end_prog()
    ret, _hctx = prog.run_on_packet(b"\x60" + b"\x00" * 39)
    assert ret == 0


def test_asm_text_unknown_name_lists_available():
    with pytest.raises(KeyError, match="wrr"):
        library.asm_text("nope")
