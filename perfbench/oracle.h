// Independent oracle for the end-to-end benchmark: a naive executor for the
// *training-dialect* graph the model builders produce (FakeSign, emulated
// binarized Conv2D / FullyConnected, BatchNorm and the float glue ops).
//
// It never runs the engine's optimized kernels, its converter or its
// ExecutionContext. Convolutions, depthwise convolutions and max pooling use
// the loop nests of kernels/reference.cc; every other op is a plain loop
// written here. Its output is what the converted model is checked against.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <vector>

#include "graph/ir.h"

namespace perfbench {

// Runs `g` (training dialect, one float input, one float output) on `input`
// and returns output 0. Large convolutions are split over four threads by
// output channel; the arithmetic of each output does not depend on it.
std::vector<float> RunOracle(const lce::Graph& g,
                             const std::vector<float>& input);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
