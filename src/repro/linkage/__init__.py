"""Whole-program linkage: resolve many MiniFortran files into one program.

`repro batch` treats N files as N independent closed programs; the
paper's real subject (SPEC/PERFECT codes) is *one* program spread over
many Fortran files. This package is the linker for that world: it
parses each file, builds a program-level symbol table binding every
unresolved call and every named COMMON block to its defining unit
across files, reports deterministic diagnostics for undefined or
duplicate symbols and COMMON shape mismatches, and merges the units
into a single module so the call graph, jump/return functions, the
IPCP solver, provenance, and the summary/run caches all operate on the
linked program.
"""

from repro.linkage.linker import (
    LinkResult,
    LinkUnit,
    analyze_linked_files,
    analyze_linked_sources,
    link_files,
    link_sources,
    project_bundle_text,
    project_label,
)

__all__ = [
    "LinkResult",
    "LinkUnit",
    "analyze_linked_files",
    "analyze_linked_sources",
    "link_files",
    "link_sources",
    "project_bundle_text",
    "project_label",
]
