"""Build script: compiles the C++ CDCL engine extension when it can.

The package works without the extension (the pure-Python engine is selected
at import time), so a failed build is skipped with a warning; building it
just makes solving much faster.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cutstock.satcore._engine",
            ["src/cutstock/satcore/_engine.cpp"],
            language="c++",
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
