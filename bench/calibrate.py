"""Fixed calibration work that run.py times right before every workload sample.

Interpreter start-up, the numpy import, FFTs and float formatting: the kinds
of work the CLI does, so this run slows down with the machine as the CLI
does, and the ratio of the two cancels the machine's speed drift.  It never
touches hyperphase, so no change to the package can move it.
"""

import numpy as np

field = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
for _ in range(10):
    field = np.fft.ifft(np.fft.fft(field, axis=1), axis=1).real
text = ",".join(format(float(x), ".17g") for x in field.ravel()[:30000])
