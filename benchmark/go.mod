// The benchmark is a module of its own so that it builds from its own
// build file and never changes the program's; it reaches the program
// (including its internal packages, which the repro/ path prefix
// allows) through the replace below.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
