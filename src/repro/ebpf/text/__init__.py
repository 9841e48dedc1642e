"""``repro.ebpf.text`` — the textual eBPF toolchain.

The kernel/LLVM-style *text frontend*, and the only way text becomes a
program: ``.s`` sources written in the assignment syntax the kernel
documentation and ``llvm-objdump -d`` use (``r6 = r1``,
``if r2 > r8 goto out``, ``*(u64 *)(r10 - 8) = r3``), organised into
sections, with first-class map declarations and symbolic relocations.

Three layers:

* :mod:`~repro.ebpf.text.easm` — the assembler.  ``parse_asm(text)``
  turns one ``.s`` source into a :class:`~repro.ebpf.text.easm.TextObject`
  (sections of instructions, local labels, exported symbols, map
  declarations, pending cross-section branches).
* :mod:`~repro.ebpf.text.eld` — the linker.  ``link(objects)`` lays the
  sections out, resolves cross-section transfers and map symbols,
  instantiates declared maps and returns a
  :class:`~repro.ebpf.text.eld.LinkedProgram` whose ``.load()`` runs the
  ordinary verify-and-load pipeline.
* ``load_text(source)`` — the one-call path: assemble, link, load.
  ``net.load``, :mod:`repro.progs`, ``bcc.BPF(text=)`` and the package
  example in :mod:`repro.ebpf` all use it.
"""

from .easm import MapDecl, Section, TextObject, parse_asm
from .eld import LinkedProgram, link, load_text

__all__ = [
    "LinkedProgram",
    "MapDecl",
    "Section",
    "TextObject",
    "link",
    "load_text",
    "parse_asm",
]
