"""Deterministic multi-chain simulator for an anonymous cross-chain
message protocol: commitment mixer, nullifier accounting, settlement and
revert constraint systems, contract state machines, actors, and a
scenario harness."""
