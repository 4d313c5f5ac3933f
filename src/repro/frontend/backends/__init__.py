"""Compatibility names for the benchmark under ``perf/``.

There is one simulator: :meth:`repro.frontend.engine.FrontendEngine.run_loop`
drives every loop run through the run memo and the interpreter.  ``perf/``
still selects a backend by name, so this package keeps the names it uses:
:func:`set_default_backend` and the ``ReferenceBackend`` and
``VectorizedBackend`` classes, all of which exist only because ``perf/``
names them and leave every run as it is.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["NAMES", "set_default_backend"]

#: Backend names ``perf/`` and the CLI's ``--backend`` still accept.
NAMES = ("reference", "vectorized")

_default: str | None = None


def set_default_backend(name: str | None) -> str | None:
    """Record ``name`` and return the previous value; it has no effect.

    Exists only because ``perf/`` calls it.  ``None``, ``"reference"``
    and ``"vectorized"`` are accepted; any other name raises
    :class:`~repro.errors.ConfigurationError`.
    """
    global _default
    if name is not None and name not in NAMES:
        raise ConfigurationError(
            f"unknown simulation backend {name!r}; available: {', '.join(NAMES)}"
        )
    previous, _default = _default, name
    return previous
