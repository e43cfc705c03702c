"""``@conserves`` compiles each class's runtime ``check()`` from the law
ND006 reads, so the runtime message names the same law."""

import importlib
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent


def _conserved_classes():
    """Every class in the package that declares a law itself."""
    classes = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if "@conserves(" not in path.read_text():
            continue
        name = ".".join(
            ("repro",) + path.relative_to(PACKAGE).with_suffix("").parts)
        classes += [value for value in
                    vars(importlib.import_module(name)).values()
                    if isinstance(value, type) and value.__module__ == name
                    and "__conserves__" in vars(value)]
    return classes


CLASSES = _conserved_classes()
LAWS = [(cls, law) for cls in CLASSES for law in cls.__conserves__]


def test_every_conserved_class_is_found():
    assert sorted(cls.__name__ for cls in CLASSES) == [
        "AdmissionQueue", "CreditWindow", "MigrationLedger", "QuotaLedger",
        "ReplicaDispatcher", "ServingReport"]
    assert len(LAWS) == 8


@pytest.mark.parametrize("cls, law", LAWS, ids=[
    f"{cls.__name__}:{law['lhs']}" for cls, law in LAWS])
def test_check_names_the_skewed_law(cls, law):
    books = object.__new__(cls)
    for declared in cls.__conserves__:
        for name in (declared["lhs"], *declared["rhs"]):
            setattr(books, name, 0)
    books.check()  # every counter at zero balances every law
    setattr(books, law["lhs"], 1)
    with pytest.raises(RuntimeError) as raised:
        books.check()
    values = ", ".join(f"{name}={int(name == law['lhs'])}"
                       for name in (law["lhs"], *law["rhs"]))
    assert str(raised.value) == (f"{cls.__name__} conservation violated: "
                                 f"{law['law']} ({values})")
