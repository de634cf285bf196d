"""The scenario runners, one module per scenario.

``cli.RUNNERS`` imports a scenario's module at the scenario's first run, so
a verdict compiles only the runner it runs.  A runner looks up the shared
set-up of ``cli`` (``_curve_setup``, ``jacobian_fay_data``) through the
``cli`` module when it runs, and imports its pipeline functions inside the
function, so that names replaced on those modules take effect.
"""
