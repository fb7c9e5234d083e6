"""Test-session setup.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` to
report a failing test, and that module imports ``libcst``, which raises a
``DeprecationWarning`` of ``mypy_extensions`` on import.  Under ``-W error``
that warning, raised inside pluggy's hook teardown, ends the session in
``INTERNALERROR`` instead of printing the falsifying example.  Importing the
module here once, with that warning ignored, leaves the plugin's import a
no-op.  Without ``libcst`` the plugin prints no patch and this does nothing.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
