"""Setup shim: legacy editable installs + the optional compiled event core.

The C extension (``repro.sim._eventcore``) is a pure accelerator: every
behaviour it implements exists in pure Python (``repro.sim.eventcore``),
and the kernel auto-selects the ``heapq`` reference core when the module
is absent. The build therefore must never fail on machines without a C
toolchain — ``optional=True`` plus the error-swallowing ``build_ext``
below turn any compile/link failure into a warning and a pure-Python
install.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Swallow toolchain failures so the extension stays optional."""

    def run(self):
        try:
            super().run()
        except Exception as error:  # noqa: BLE001 - any toolchain failure
            self._warn(error)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as error:  # noqa: BLE001
            self._warn(error)

    @staticmethod
    def _warn(error):
        import warnings

        warnings.warn(
            "repro.sim._eventcore failed to compile (%s); installing "
            "without the compiled event core — the kernel will use the "
            "pure-Python heapq backend" % (error,),
            stacklevel=2,
        )


setup(
    ext_modules=[
        Extension(
            "repro.sim._eventcore",
            sources=["src/repro/sim/_eventcore.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
