#include "graph/passes.h"

#include <algorithm>

#include "common/logging.h"

namespace gcd2::graph {

int64_t
foldConstants(Graph &graph)
{
    int64_t folded = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || node.op == OpType::Constant ||
            node.op == OpType::Input || node.op == OpType::Output)
            continue;
        const bool allConst = !node.inputs.empty() &&
            std::all_of(node.inputs.begin(), node.inputs.end(),
                        [&](NodeId in) {
                            return graph.node(in).op == OpType::Constant;
                        });
        if (!allConst)
            continue;
        // Replace with a Constant of the already-inferred shape.
        node.attrs.targetShape = node.shape.dims();
        node.op = OpType::Constant;
        node.inputs.clear();
        ++folded;
    }
    return folded;
}

int64_t
fuseClampActivations(Graph &graph)
{
    const auto succ = graph.successors();
    int64_t fused = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || node.op != OpType::Clamp)
            continue;
        const NodeId producerId = node.inputs[0];
        Node &producer = graph.node(producerId);
        const bool fusable = producer.op == OpType::Conv2D ||
                             producer.op == OpType::DepthwiseConv2D ||
                             producer.op == OpType::MatMul ||
                             producer.op == OpType::Add;
        // Only fuse when the clamp is the producer's only consumer.
        if (!fusable ||
            succ[static_cast<size_t>(producerId)].size() != 1)
            continue;
        producer.attrs.fusedClamp = true;
        producer.attrs.fusedLo = node.attrs.clampLo;
        producer.attrs.fusedHi = node.attrs.clampHi;
        // The clamp becomes a pass-through that dead-node elimination
        // removes: rewire its consumers to the producer.
        for (Node &consumer : graph.nodes()) {
            if (consumer.dead)
                continue;
            for (NodeId &in : consumer.inputs)
                if (in == node.id)
                    in = producerId;
        }
        node.dead = true;
        ++fused;
    }
    return fused;
}

int64_t
eliminateDeadNodes(Graph &graph)
{
    // Backward reachability from Output nodes.
    std::vector<bool> live(graph.size(), false);
    std::vector<NodeId> work;
    for (const Node &node : graph.nodes()) {
        if (!node.dead && node.op == OpType::Output) {
            live[static_cast<size_t>(node.id)] = true;
            work.push_back(node.id);
        }
    }
    GCD2_REQUIRE(!work.empty(), "graph has no Output node");
    while (!work.empty()) {
        const NodeId id = work.back();
        work.pop_back();
        for (NodeId in : graph.node(id).inputs) {
            if (!live[static_cast<size_t>(in)]) {
                live[static_cast<size_t>(in)] = true;
                work.push_back(in);
            }
        }
    }

    int64_t removed = 0;
    for (Node &node : graph.nodes()) {
        if (!node.dead && !live[static_cast<size_t>(node.id)]) {
            node.dead = true;
            ++removed;
        }
    }
    return removed;
}

int64_t
fuseLutActivations(Graph &graph)
{
    const auto succ = graph.successors();
    int64_t fused = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLutActivation(node.op))
            continue;
        const NodeId producerId = node.inputs[0];
        Node &producer = graph.node(producerId);
        if (!isMatMulFamily(producer.op) || producer.attrs.fusedLut ||
            succ[static_cast<size_t>(producerId)].size() != 1)
            continue;
        producer.attrs.fusedLut = true;
        for (Node &consumer : graph.nodes()) {
            if (consumer.dead)
                continue;
            for (NodeId &in : consumer.inputs)
                if (in == node.id)
                    in = producerId;
        }
        node.dead = true;
        ++fused;
    }
    if (fused > 0)
        eliminateDeadNodes(graph);
    return fused;
}

int64_t
fuseResidualAdds(Graph &graph)
{
    const auto succ = graph.successors();
    int64_t fused = 0;
    for (Node &node : graph.nodes()) {
        if (node.dead || node.op != OpType::Add || node.inputs.size() != 2)
            continue;
        // Fuse into whichever operand is a matmul-family producer whose
        // only consumer is this add.
        for (size_t which = 0; which < 2; ++which) {
            const NodeId producerId = node.inputs[which];
            Node &producer = graph.node(producerId);
            if (!isMatMulFamily(producer.op) || producer.attrs.fusedAdd ||
                succ[static_cast<size_t>(producerId)].size() != 1)
                continue;
            const NodeId other = node.inputs[1 - which];
            // The residual operand must precede the producer so the
            // rewritten graph stays topological.
            if (other >= producerId)
                continue;
            producer.attrs.fusedAdd = true;
            producer.inputs.push_back(other);
            for (Node &consumer : graph.nodes()) {
                if (consumer.dead)
                    continue;
                for (NodeId &in : consumer.inputs)
                    if (in == node.id)
                        in = producerId;
            }
            node.dead = true;
            ++fused;
            break;
        }
    }
    if (fused > 0)
        eliminateDeadNodes(graph);
    return fused;
}

// ---- layout-transform elimination -----------------------------------

namespace {

/** Rewire every live consumer of `from` to read `to` instead. */
void
rewireConsumers(Graph &graph, NodeId from, NodeId to)
{
    for (Node &consumer : graph.nodes()) {
        if (consumer.dead)
            continue;
        for (NodeId &in : consumer.inputs)
            if (in == from)
                in = to;
    }
}

bool
isIdentityPerm(const std::vector<int> &perm)
{
    for (size_t i = 0; i < perm.size(); ++i)
        if (perm[i] != static_cast<int>(i))
            return false;
    return true;
}

/** Unary ops that apply the same function to every element regardless
 *  of its position -- safe to commute with any layout transform. */
bool
isUnaryElementwise(OpType op)
{
    return op == OpType::Clamp || op == OpType::Sigmoid ||
           op == OpType::Tanh || op == OpType::Gelu || op == OpType::Pow;
}

/** Binary elementwise ops (positionally independent per lane). */
bool
isBinaryElementwise(OpType op)
{
    return op == OpType::Add || op == OpType::Mul ||
           op == OpType::Sub || op == OpType::Div;
}

/** Two transforms with byte-for-byte identical semantics? */
bool
sameTransformSpec(const Node &a, const Node &b)
{
    if (a.op != b.op)
        return false;
    if (a.op == OpType::Reshape)
        return a.attrs.targetShape == b.attrs.targetShape;
    return a.attrs.perm == b.attrs.perm;
}

/** Analytic standalone cost of a live transform node, mirroring the
 *  cost model: a Reshape is a zero-copy row-major view; a Transpose is
 *  a vectorized copy at ~4 cycles per 128-byte vector plus setup. */
int64_t
standingTransformCycles(const Graph &graph)
{
    int64_t cycles = 0;
    for (const Node &node : graph.nodes()) {
        if (node.dead || node.op != OpType::Transpose)
            continue;
        const int64_t elements =
            graph.node(node.inputs[0]).shape.elements();
        cycles += 4 * ((elements + 127) / 128) + 8;
    }
    return cycles;
}

/** Rule 1: identity transforms vanish; chained transforms compose.
 *  Applies at most one rewrite (caller loops to fixpoint). */
bool
cancelOneTransform(Graph &graph, PassStats &stats)
{
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLayoutTransformOp(node.op))
            continue;
        const Node &producer = graph.node(node.inputs[0]);

        // Identity Reshape / Transpose: consumers read the input.
        const bool identity =
            node.op == OpType::Reshape
                ? node.attrs.targetShape == producer.shape.dims()
                : isIdentityPerm(node.attrs.perm);
        if (identity) {
            rewireConsumers(graph, node.id, node.inputs[0]);
            node.dead = true;
            ++stats.cancelledTransforms;
            return true;
        }

        // Reshape(Reshape(x)) -> Reshape(x): only the outer target
        // matters under row-major views.
        if (node.op == OpType::Reshape &&
            producer.op == OpType::Reshape) {
            node.inputs[0] = producer.inputs[0];
            ++stats.cancelledTransforms;
            return true;
        }

        // Transpose(Transpose(x)) -> Transpose(x) with composed perm;
        // inverse pairs compose to the identity and cancel next sweep.
        if (node.op == OpType::Transpose &&
            producer.op == OpType::Transpose) {
            const std::vector<int> &inner = producer.attrs.perm;
            const std::vector<int> &outer = node.attrs.perm;
            GCD2_REQUIRE(inner.size() == outer.size(),
                         "composing transposes of different rank");
            std::vector<int> composed(outer.size());
            for (size_t i = 0; i < outer.size(); ++i)
                composed[i] = inner[static_cast<size_t>(outer[i])];
            node.attrs.perm = std::move(composed);
            node.inputs[0] = producer.inputs[0];
            ++stats.cancelledTransforms;
            return true;
        }
    }
    return false;
}

/** Rule 2: sink a transform below a layout-agnostic consumer by
 *  swapping the two nodes in place (keeps ids topological: the
 *  elementwise moves up into the transform's slot, the transform moves
 *  down into the elementwise's slot). */
bool
sinkOneTransform(Graph &graph, PassStats &stats)
{
    const auto succ = graph.successors();
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLayoutTransformOp(node.op))
            continue;
        if (succ[static_cast<size_t>(node.id)].size() != 1)
            continue;
        const NodeId consumerId = succ[static_cast<size_t>(node.id)][0];
        Node &consumer = graph.node(consumerId);

        // Unary elementwise: T -> E  becomes  E -> T.
        if (isUnaryElementwise(consumer.op) &&
            consumer.inputs.size() == 1) {
            Node elem = consumer; // E's op + attrs (clamp bounds, exponent)
            Node xform = node;    // T's op + attrs (targetShape / perm)
            elem.id = node.id;
            elem.inputs = {node.inputs[0]};
            xform.id = consumerId;
            xform.inputs = {node.id};
            graph.nodes()[static_cast<size_t>(node.id)] = std::move(elem);
            graph.nodes()[static_cast<size_t>(consumerId)] =
                std::move(xform);
            ++stats.sunkTransforms;
            return true;
        }

        if (!isBinaryElementwise(consumer.op) ||
            consumer.inputs.size() != 2)
            continue;
        const size_t which = consumer.inputs[0] == node.id ? 0 : 1;
        const NodeId otherId = consumer.inputs[1 - which];
        const Node &other = graph.node(otherId);

        // Matching binary sink: E(T1(a), T2(b)) with identical transform
        // specs over equal input shapes becomes T(E(a, b)).
        if (isLayoutTransformOp(other.op) && otherId != node.id &&
            succ[static_cast<size_t>(otherId)].size() == 1 &&
            sameTransformSpec(node, other) &&
            graph.node(node.inputs[0]).shape.dims() ==
                graph.node(other.inputs[0]).shape.dims()) {
            const NodeId hi = std::max(node.id, otherId);
            const NodeId lo = std::min(node.id, otherId);
            Node elem = consumer;
            elem.id = hi;
            elem.inputs = {graph.node(consumer.inputs[0]).inputs[0],
                           graph.node(consumer.inputs[1]).inputs[0]};
            Node xform = node;
            xform.id = consumerId;
            xform.inputs = {hi};
            graph.nodes()[static_cast<size_t>(hi)] = std::move(elem);
            graph.nodes()[static_cast<size_t>(consumerId)] =
                std::move(xform);
            graph.node(lo).dead = true;
            stats.sunkTransforms += 2;
            ++stats.cancelledTransforms; // the pair shared one transform
            return true;
        }

        // Scalar-broadcast sink: E(T(a), c) with |c| == 1 becomes
        // T(E(a, c)) -- a scalar operand is position-independent. The
        // scalar must precede T's slot to keep ids topological, and the
        // transform operand must be first (shape-inference broadcast
        // rule: the larger operand comes first).
        if (which == 0 && other.shape.elements() == 1 &&
            otherId < node.id) {
            Node elem = consumer;
            elem.id = node.id;
            elem.inputs = {node.inputs[0], otherId};
            Node xform = node;
            xform.id = consumerId;
            xform.inputs = {node.id};
            graph.nodes()[static_cast<size_t>(node.id)] = std::move(elem);
            graph.nodes()[static_cast<size_t>(consumerId)] =
                std::move(xform);
            ++stats.sunkTransforms;
            return true;
        }
    }
    return false;
}

/** Rule 3: fold a single-consumer transform into its matmul-family
 *  producer as an epilogue attribute. Chains compose: once the producer
 *  carries a fused shape, a following transform sees that shape and can
 *  fold on top. */
bool
fuseOneTransform(Graph &graph, PassStats &stats)
{
    const auto succ = graph.successors();
    for (Node &node : graph.nodes()) {
        if (node.dead || !isLayoutTransformOp(node.op))
            continue;
        const NodeId producerId = node.inputs[0];
        Node &producer = graph.node(producerId);
        if (!isMatMulFamily(producer.op) &&
            producer.op != OpType::DepthwiseConv2D)
            continue;
        if (succ[static_cast<size_t>(producerId)].size() != 1)
            continue;
        producer.attrs.fusedTransform = true;
        producer.attrs.fusedOutShape = node.shape.dims();
        if (node.op == OpType::Transpose)
            producer.attrs.fusedTransformPermutes = true;
        rewireConsumers(graph, node.id, producerId);
        node.dead = true;
        ++stats.fusedTransforms;
        return true;
    }
    return false;
}

} // namespace

int64_t
eliminateLayoutTransforms(Graph &graph, PassStats &stats)
{
    inferShapes(graph);
    const int64_t before = standingTransformCycles(graph);
    int64_t total = 0;
    // Each applied rewrite re-infers shapes, so every rule always sees
    // consistent producer shapes. Graphs are small (hundreds of nodes);
    // the quadratic sweep is well under a millisecond.
    for (bool changed = true; changed;) {
        changed = false;
        while (cancelOneTransform(graph, stats)) {
            inferShapes(graph);
            changed = true;
            ++total;
        }
        while (sinkOneTransform(graph, stats)) {
            inferShapes(graph);
            changed = true;
            ++total;
        }
        while (fuseOneTransform(graph, stats)) {
            inferShapes(graph);
            changed = true;
            ++total;
        }
        if (changed) {
            eliminateDeadNodes(graph);
            inferShapes(graph);
        }
    }
    stats.transformCyclesSaved += before - standingTransformCycles(graph);
    return total;
}

PassStats
optimize(Graph &graph, const OptimizeOptions &options)
{
    inferShapes(graph);
    PassStats stats;
    stats.foldedNodes = foldConstants(graph);
    stats.fusedActivations = fuseClampActivations(graph);
    if (options.eliminateLayoutTransforms) {
        eliminateLayoutTransforms(graph, stats);
        // Sinking can re-expose Clamp-under-producer patterns.
        stats.fusedActivations += fuseClampActivations(graph);
    }
    stats.removedNodes = eliminateDeadNodes(graph);
    inferShapes(graph);
    return stats;
}

} // namespace gcd2::graph
