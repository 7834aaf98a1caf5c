"""spinqrc: exact density-matrix simulation of a 4-qubit dissipative spin
network used as a reservoir computer with two distributed input streams.

Subpackage map:

* ``linalg``        tensor products, partial trace/transpose, eigenvalues
* ``dynamics``      Hamiltonian, jump operators, RK4 master-equation solver
* ``signals``       multi-sinusoid inputs and single-qubit encoding
* ``reservoir``     the inject/evolve/measure run loop
* ``learning``      ridge readout and short-term-memory capacity
* ``entanglement``  logarithmic negativity over the seven bipartitions
* ``experiments``   sweeps, reproducibility metadata, every file written
* ``cli``           command-line entry point
"""

__version__ = "0.1.0"
