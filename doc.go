// Package priceadaptive is a reproduction, as a runnable Go library, of
// "The Price of being Adaptive" by Ohad Ben-Baruch and Danny Hendler
// (PODC 2015): the fence-complexity lower bound for adaptive
// mutual-exclusion algorithms in the TSO memory model, together with every
// substrate the paper's argument runs on.
//
// The library lives under internal/ and is exercised through the commands in
// cmd/, the runnable programs in examples/, and the benchmark harness in
// bench_test.go:
//
//   - internal/tso: the TSO operational model (write buffers, fences,
//     commit events, scheduling adversaries);
//   - internal/rmr: RMR accounting for DSM, CC write-through and CC
//     write-back machines;
//   - internal/awareness: awareness sets, invisible sets, regular /
//     semi-regular / ordered executions as checkable predicates;
//   - internal/graphs: Turán independent sets;
//   - internal/adversary: the paper's three-phase lower-bound construction,
//     executable against concrete algorithms;
//   - internal/bounds: Theorem 1/3 and Corollary 1-3 calculators;
//   - internal/mutex: mutual-exclusion algorithms spanning the design space
//     the paper separates;
//   - internal/objects: counters, stacks, queues (lock-based and
//     lock-free), and the Lemma 9 reduction (Algorithm 1);
//   - internal/check: model checking, sweeps, failure injection, schedule
//     artifacts and delta-debugging minimization;
//   - internal/vmprog: locks as register programs and a fast clonable-state
//     engine for complete verification, differentially tested against the
//     goroutine engine;
//   - internal/core: the experiment runners E1..E11.
//
// See README.md for a tour and EXPERIMENTS.md for the paper-vs-measured
// record.
package priceadaptive
