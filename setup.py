"""Package metadata for ``repro`` (there is no pyproject.toml; this file is
the whole build configuration).  ``pip install -e .`` takes pip's legacy
``setup.py develop`` path, which needs no ``wheel`` package."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "EAGr: continuous ego-centric aggregate queries over large dynamic "
        "graphs (SIGMOD 2014 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # slots-based event dataclasses require dataclass(slots=True) (3.10+)
    python_requires=">=3.10",
    # PAOs live in numpy columns; every handle-space kernel runs on them.
    install_requires=["numpy"],
)
