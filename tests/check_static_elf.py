#!/usr/bin/env python3
"""Fails when an ELF executable needs the dynamic loader.

Reads the program headers with `struct` alone and rejects a PT_INTERP
(loader path) or PT_DYNAMIC (dynamic section) segment.  The locwm CLI is
linked with -static because loading the shared libstdc++, libm and
libgcc_s took more of a short command's wall time than its own work.

Usage: check_static_elf.py EXECUTABLE
Exit 0 for a static executable; 1 with a message otherwise.
"""

import struct
import sys

PT_DYNAMIC = 2
PT_INTERP = 3


def segment_types(path):
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"\x7fELF":
        raise ValueError("not an ELF file")
    wide = {1: False, 2: True}[data[4]]           # EI_CLASS: 32/64-bit
    order = {1: "<", 2: ">"}[data[5]]             # EI_DATA: endianness
    if wide:
        phoff, = struct.unpack_from(order + "Q", data, 32)
        phentsize, phnum = struct.unpack_from(order + "HH", data, 54)
    else:
        phoff, = struct.unpack_from(order + "I", data, 28)
        phentsize, phnum = struct.unpack_from(order + "HH", data, 42)
    return [struct.unpack_from(order + "I", data, phoff + i * phentsize)[0]
            for i in range(phnum)]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]
    types = segment_types(path)
    found = [name for name, t in (("PT_INTERP", PT_INTERP),
                                  ("PT_DYNAMIC", PT_DYNAMIC))
             if t in types]
    if found:
        print(f"{path}: not statically linked (has {', '.join(found)})",
              file=sys.stderr)
        return 1
    print(f"{path}: static ({len(types)} program headers, no loader)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
