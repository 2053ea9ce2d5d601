"""Package metadata for ``pip install -e .``: the ``repro`` package lives
under ``src/``.  Tool settings live beside it in ``pytest.ini``,
``ruff.toml`` and ``mypy.ini``."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
