"""spinqrc: exact density-matrix simulation of a 4-qubit dissipative spin
network used as a reservoir computer with two distributed input streams.

Subpackage map:

* ``linalg``        tensor products, Hermiticity checks, density-matrix checks
* ``dynamics``      Hamiltonian, jump operators, RK4 master-equation solver
* ``signals``       multi-sinusoid input sequences
* ``streams``       PCG64 seed streams keyed by (domain tag, ...) integer tuples
* ``reservoir``     the inject/evolve/measure run loop
* ``learning``      ridge readout and short-term-memory capacity
* ``entanglement``  the seven bipartitions' partial-transpose table, log negativity
* ``experiments``   sweeps, reproducibility metadata, every file written
* ``cli``           command-line entry point
"""

__version__ = "0.1.0"
