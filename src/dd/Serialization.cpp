#include "qdd/dd/Serialization.hpp"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace qdd {

namespace {

template <class Node>
void serializeImpl(const Edge<Node>& root, std::ostream& os, const char* kind,
                   int version, long span) {
  os << kind << " " << version << "\n";
  if (span >= 0) {
    os << "span " << span << "\n";
  }
  if (root.w.exactlyZero() || root.isTerminal()) {
    os << "root -1 " << root.w.real() << " " << root.w.imag() << "\n";
    os << "end\n";
    return;
  }
  // post-order ids: children appear before parents
  std::unordered_map<const Node*, long> ids;
  std::ostringstream body;
  long nextId = 0;
  auto visit = [&](auto&& self, const Node* p) -> long {
    if (p->isTerminal()) {
      return -1;
    }
    if (const auto it = ids.find(p); it != ids.end()) {
      return it->second;
    }
    std::array<long, RADIX<Node>> childIds{};
    for (std::size_t k = 0; k < RADIX<Node>; ++k) {
      childIds[k] =
          p->e[k].w.exactlyZero() ? -1 : self(self, p->e[k].p);
    }
    const long id = nextId++;
    ids.emplace(p, id);
    body << "node " << id << " " << p->v;
    body.precision(17);
    for (std::size_t k = 0; k < RADIX<Node>; ++k) {
      body << " " << childIds[k] << " " << p->e[k].w.real() << " "
           << p->e[k].w.imag();
    }
    body << "\n";
    return id;
  };
  const long rootId = visit(visit, root.p);
  os.precision(17);
  os << "root " << rootId << " " << root.w.real() << " " << root.w.imag()
     << "\n";
  os << body.str();
  os << "end\n";
}

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("deserialize: malformed input (" + what + ")");
}

struct ParsedDD {
  int version = 1;
  long rootId = -1;
  ComplexValue rootWeight;
  struct NodeLine {
    long id;
    Qubit level;
    std::vector<long> children;
    std::vector<ComplexValue> weights;
  };
  std::vector<NodeLine> nodes;
};

ParsedDD parseBody(std::istream& is, const char* kind, std::size_t radix,
                   int maxVersion) {
  std::string word;
  if (!(is >> word) || word != kind) {
    malformed("expected header '" + std::string(kind) + "'");
  }
  ParsedDD dd;
  if (!(is >> dd.version) || dd.version < 1 || dd.version > maxVersion) {
    malformed("unsupported version");
  }
  if (!(is >> word)) {
    malformed("truncated input");
  }
  if (word == "span") {
    if (dd.version < 2) {
      malformed("span line requires version 2");
    }
    // Levels between the root and the span are implicit identity, so the
    // declared span is only validated.
    long span = -1;
    if (!(is >> span) || span < 0) {
      malformed("bad span line");
    }
    if (!(is >> word)) {
      malformed("truncated input");
    }
  }
  if (word != "root") {
    malformed("expected root line");
  }
  if (!(is >> dd.rootId >> dd.rootWeight.re >> dd.rootWeight.im)) {
    malformed("bad root line");
  }
  while (is >> word) {
    if (word == "end") {
      return dd;
    }
    if (word != "node") {
      malformed("unexpected token '" + word + "'");
    }
    ParsedDD::NodeLine line;
    long level = 0;
    if (!(is >> line.id >> level)) {
      malformed("bad node line");
    }
    line.level = static_cast<Qubit>(level);
    for (std::size_t k = 0; k < radix; ++k) {
      long child = 0;
      ComplexValue w;
      if (!(is >> child >> w.re >> w.im)) {
        malformed("bad edge in node line");
      }
      line.children.push_back(child);
      line.weights.push_back(w);
    }
    dd.nodes.push_back(std::move(line));
  }
  malformed("missing 'end'");
}

} // namespace

void serialize(const vEdge& e, std::ostream& os) {
  serializeImpl(e, os, "qdd-vector", 1, -1);
}
void serialize(const mEdge& e, std::ostream& os) {
  serialize(e, os,
            e.isTerminal() ? 0 : static_cast<std::size_t>(e.p->v) + 1);
}
void serialize(const mEdge& e, std::ostream& os, std::size_t span) {
  if (!e.isTerminal() && static_cast<std::size_t>(e.p->v) >= span) {
    throw std::invalid_argument("serialize: matrix exceeds the declared span");
  }
  serializeImpl(e, os, "qdd-matrix", 2, static_cast<long>(span));
}

std::string serializeToString(const vEdge& e) {
  std::ostringstream ss;
  serialize(e, ss);
  return ss.str();
}
std::string serializeToString(const mEdge& e) {
  std::ostringstream ss;
  serialize(e, ss);
  return ss.str();
}
std::string serializeToString(const mEdge& e, std::size_t span) {
  std::ostringstream ss;
  serialize(e, ss, span);
  return ss.str();
}

vEdge deserializeVector(Package& pkg, std::istream& is) {
  const ParsedDD dd = parseBody(is, "qdd-vector", 2, 1);
  if (dd.rootId == -1) {
    return dd.rootWeight.exactlyZero() ? vEdge::zero()
                                       : vEdge::terminal(pkg.lookup(dd.rootWeight));
  }
  std::map<long, vEdge> built;
  for (const auto& line : dd.nodes) {
    if (line.level >= 0) {
      pkg.resize(static_cast<std::size_t>(line.level) + 1);
    }
    std::array<vEdge, 2> children{};
    for (std::size_t k = 0; k < 2; ++k) {
      const long childId = line.children[k];
      const ComplexValue w = line.weights[k];
      vEdge child;
      if (childId == -1) {
        child = w.exactlyZero() ? vEdge::zero()
                                : vEdge::terminal(pkg.lookup(w));
      } else {
        const auto it = built.find(childId);
        if (it == built.end()) {
          malformed("child referenced before definition");
        }
        child = it->second;
        child.w = pkg.lookup(child.w.toValue() * w);
      }
      children[k] = child;
    }
    if (built.contains(line.id)) {
      malformed("duplicate node id");
    }
    built.emplace(line.id, pkg.makeVecNode(line.level, children));
  }
  const auto it = built.find(dd.rootId);
  if (it == built.end()) {
    malformed("root id not defined");
  }
  vEdge root = it->second;
  root.w = pkg.lookup(root.w.toValue() * dd.rootWeight);
  return root;
}

mEdge deserializeMatrix(Package& pkg, std::istream& is) {
  const ParsedDD dd = parseBody(is, "qdd-matrix", 4, 2);
  if (dd.rootId == -1) {
    return dd.rootWeight.exactlyZero()
               ? mEdge::zero()
               : mEdge::terminal(pkg.lookup(dd.rootWeight));
  }
  std::map<long, mEdge> built;
  for (const auto& line : dd.nodes) {
    if (line.level >= 0) {
      pkg.resize(static_cast<std::size_t>(line.level) + 1);
    }
    std::array<mEdge, 4> children{};
    for (std::size_t k = 0; k < 4; ++k) {
      const long childId = line.children[k];
      const ComplexValue w = line.weights[k];
      mEdge child;
      if (childId == -1) {
        child = w.exactlyZero() ? mEdge::zero()
                                : mEdge::terminal(pkg.lookup(w));
      } else {
        const auto it = built.find(childId);
        if (it == built.end()) {
          malformed("child referenced before definition");
        }
        child = it->second;
        child.w = pkg.lookup(child.w.toValue() * w);
      }
      children[k] = child;
    }
    if (built.contains(line.id)) {
      malformed("duplicate node id");
    }
    built.emplace(line.id, pkg.makeMatNode(line.level, children));
  }
  const auto it = built.find(dd.rootId);
  if (it == built.end()) {
    malformed("root id not defined");
  }
  mEdge root = it->second;
  root.w = pkg.lookup(root.w.toValue() * dd.rootWeight);
  return root;
}

vEdge deserializeVectorFromString(Package& pkg, const std::string& text) {
  std::istringstream ss(text);
  return deserializeVector(pkg, ss);
}
mEdge deserializeMatrixFromString(Package& pkg, const std::string& text) {
  std::istringstream ss(text);
  return deserializeMatrix(pkg, ss);
}

} // namespace qdd
