"""The kernel boundary's table against the C it declares.

``repro.core.kernels._ENTRIES`` states, for every entry point of
``_kernels.c``, the return type and each parameter in C order, and
``_build`` sets every ``restype`` and ``argtypes`` from it.  ctypes
passes what ``argtypes`` says and nothing compares that with the C
prototype: a parameter declared in the wrong place, or with the wrong
type, corrupts memory without raising.  So every exported ``repro_*``
definition is parsed from the source here, and its return type, each
parameter's name and C type, and which of its pointers are ``const``
must be what its row of the table says and what the loaded library
declares.
"""

from __future__ import annotations

import ctypes
import re

import numpy as np
import pytest

from repro.core import kernels

# Dependency floor: the kernel boundary's table against the C, compared through numpy
# dtypes.
pytestmark = pytest.mark.floor

SOURCE = kernels._SOURCE.read_text()
# A definition at the start of a line (so no `static` helper, and no
# function inside a macro): return type, name, parameters.
DEFINITION = re.compile(
    r"^(double|int|int64_t|void)\s+(repro_\w+)\(([^)]*)\)\s*\{", re.MULTILINE
)
PARAMETER = re.compile(r"^(const\s+)?(\w+)\s*(\*?)\s*(\w+)$")
C_TYPES = {
    "int64_t": ctypes.c_int64, "int": ctypes.c_int, "double": ctypes.c_double,
    "void": None,
}
ROLES = {"int64_t": "id", "int": "int", "double": "real"}
POINTEES = {"int64_t": np.int64, "int32_t": np.int32, "double": np.float64}


def definitions() -> dict[str, tuple[str, list[str]]]:
    found = DEFINITION.findall(SOURCE)
    assert len({name for _, name, _ in found}) == len(found), "a name defined twice"
    return {
        name: (restype, [part.strip() for part in params.split(",")])
        for restype, name, params in found
    }


def test_every_exported_entry_has_exactly_one_row():
    assert sorted(definitions()) == sorted(kernels._ENTRIES)
    assert len(kernels._ENTRIES) == 11


@pytest.mark.parametrize("name", sorted(kernels._ENTRIES))
def test_the_row_and_the_declaration_match_the_prototype(name):
    c_restype, c_params = definitions()[name]
    entry = kernels._ENTRIES[name]
    function = getattr(kernels._LIB, name)
    assert entry.restype is C_TYPES[c_restype]
    assert function.restype is C_TYPES[c_restype]
    assert [param.name for param in entry.params] == [
        PARAMETER.match(text).group(4) for text in c_params
    ]
    assert len(function.argtypes) == len(c_params)
    for text, param, argtype in zip(c_params, entry.params, function.argtypes):
        const, c_type, star, _ = PARAMETER.match(text).groups()
        if not star:
            assert not const
            assert param.role == ROLES[c_type], text
            assert argtype is C_TYPES[c_type], text
            continue
        # Every pointer goes as a pointer: an array as its address, an
        # out-count as a ctypes array of its C type.
        assert issubclass(argtype, (ctypes.c_void_p, ctypes._Pointer)), text
        if param.role == "out":
            assert not const
            assert param.dtype is C_TYPES[c_type], text
            assert argtype is ctypes.POINTER(param.dtype)
        else:
            assert param.role == ("reads" if const else "writes"), text
            assert param.dtype == POINTEES[c_type], text
            assert argtype is ctypes.c_void_p


def test_every_length_names_a_count_of_the_same_entry():
    for name, entry in kernels._ENTRIES.items():
        counts = {param.name: 7 for param in entry.params if param.role == "id"}
        for param in entry.params:
            if param.role in ("reads", "writes") and param.length is not None:
                size, at_least = kernels._size(param, counts)
                assert size in (7, 8), (name, param.name)
                assert at_least == param.length.startswith(">= ")
            elif param.role == "out":
                assert isinstance(param.length, int) and param.length >= 1
            elif param.role not in ("reads", "writes"):
                assert param.length is None, (name, param.name)
