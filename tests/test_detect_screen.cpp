// Detection-screen oracle tests.  Every detector replays only the roots
// the fingerprint screen (core/screen.h) keeps; these tests pin that the
// screened result equals an unscreened replay over every candidate root —
// found, satisfied/shared/present, total, shape_matches and root — for
// sched, reg, rooted tm and whole-design tm certificates, own and foreign,
// on seeded random, HYPER and MediaBench-mix designs, under the
// structural attacks detection must survive (copy insertion, re-indexing,
// host embedding) and under the local tampering of core/attack.h.  Every
// root the screen prunes is replayed as well: none may yield a shape
// match.  Each check runs at 1, 2 and 8 lanes; the suite also runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "cdfg/subgraph.h"
#include "core/attack.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/screen.h"
#include "core/tm_wm.h"
#include "regbind/binding.h"
#include "regbind/lifetime.h"
#include "rt/rt.h"
#include "sched/list_scheduler.h"
#include "sched/timeframes.h"
#include "tm/cover.h"
#include "tm/matching.h"
#include "tm/template.h"
#include "workloads/hyper.h"
#include "workloads/mediabench.h"

namespace locwm::wm {
namespace {

using cdfg::Cdfg;
using cdfg::NodeId;

const tm::TemplateLibrary& library() {
  static const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  return lib;
}

/// One design with every kind of mark embedded, as its author ships it.
struct Marked {
  std::string name;
  crypto::AuthorSignature sig;
  Cdfg published;
  sched::Schedule schedule;
  std::vector<WatermarkCertificate> sched_certs;
  std::optional<RegCertificate> reg_cert;
  regbind::Binding binding;
  std::vector<TmCertificate> tm_certs;  ///< rooted and/or whole-design
  std::vector<tm::Matching> cover;
};

Marked markDesign(std::string name, Cdfg g) {
  Marked m{name, {"alice", name}, {}, sched::Schedule(0), {}, {}, {}, {}, {}};
  SchedWmParams sp;
  sp.min_eligible = 3;
  sp.k_fraction = 0.5;
  sp.deadline = sched::TimeFrames(g, sp.latency).criticalPathSteps() + 3;
  for (SchedEmbedResult& r :
       SchedulingWatermarker(m.sig).embedMany(g, 2, sp)) {
    m.sched_certs.push_back(std::move(r.certificate));
  }
  m.schedule = sched::listSchedule(g);
  m.published = g.stripTemporalEdges();

  const regbind::LifetimeTable table =
      regbind::computeLifetimes(m.published, m.schedule);
  RegWmParams rp;
  rp.locality.min_size = 5;
  regbind::BindOptions bo;
  if (auto r = RegisterWatermarker(m.sig).embed(m.published, m.schedule, rp)) {
    bo.aliases = r->aliases;
    m.reg_cert = std::move(r->certificate);
  }
  m.binding = regbind::bindRegisters(table, bo);

  const TemplateWatermarker tmark(m.sig, library());
  for (const bool whole : {false, true}) {
    TmWmParams tp;
    tp.locality.min_size = 4;
    tp.beta = 0.0;
    tp.z_explicit = 2;
    tp.whole_design = whole;
    if (auto r = tmark.embed(m.published, tp)) {
      if (m.cover.empty()) {
        m.cover = tmark.applyCover(m.published, *r).chosen;
      }
      m.tm_certs.push_back(std::move(r->certificate));
    }
  }
  return m;
}

// --- structural attacks ---------------------------------------------------

/// A suspect design derived from a marked one, with the original→suspect
/// node map of the attack that produced it.
struct Suspect {
  std::string attack;
  Cdfg g;
  cdfg::NodeMap map;
};

cdfg::NodeMap identityMap(const Cdfg& g) {
  cdfg::NodeMap map;
  for (const NodeId v : g.allNodes()) {
    map[v] = v;
  }
  return map;
}

/// Splits every third data edge with a kCopy node.  Original nodes keep
/// their ids.
Cdfg withCopies(const Cdfg& g) {
  Cdfg out;
  for (const NodeId v : g.allNodes()) {
    out.addNode(g.node(v).kind, g.node(v).name);
  }
  std::size_t n = 0;
  for (const cdfg::EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (ed.kind == cdfg::EdgeKind::kData && e.value() % 3 == 0) {
      const NodeId mov =
          out.addNode(cdfg::OpKind::kCopy, "mov" + std::to_string(n++));
      out.addEdge(ed.src, mov, cdfg::EdgeKind::kData);
      out.addEdge(mov, ed.dst, cdfg::EdgeKind::kData);
    } else {
      out.addEdge(ed.src, ed.dst, ed.kind);
    }
  }
  return out;
}

std::vector<Suspect> suspectsOf(const Cdfg& g, std::uint64_t seed) {
  std::vector<Suspect> out;
  out.push_back({"published", g, identityMap(g)});
  out.push_back({"copies", withCopies(g), identityMap(g)});

  std::vector<std::uint32_t> perm(g.nodeCount());
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    perm[i] = i;
  }
  cdfg::SplitMix64 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  Suspect relabeled{"relabeled", {}, {}};
  relabeled.g = cdfg::relabel(g, perm, &relabeled.map);
  out.push_back(std::move(relabeled));

  // Host embedding: a host signal feeds every input of the core.
  Suspect hosted{"hosted", workloads::fir(12), {}};
  std::vector<std::pair<NodeId, NodeId>> stitches;
  for (const NodeId v : g.allNodes()) {
    if (g.node(v).kind == cdfg::OpKind::kInput) {
      stitches.push_back({NodeId(0), v});
    }
  }
  hosted.map = cdfg::embed(hosted.g, g, stitches);
  out.push_back(std::move(hosted));

  // Local tampering that keeps node ids: it breaks the localities it
  // touches, which the screen must not mistake for matches either way.
  for (const MutationKind kind :
       {MutationKind::kChangeOpKind, MutationKind::kAddDataEdge}) {
    out.push_back({std::string(mutationKindName(kind)),
                   mutateDesign(g, kind, seed).design, identityMap(g)});
  }
  return out;
}

/// Everything the detectors read from one suspect.  The author's schedule
/// and cover travel through the attack's node map; the binding is the
/// author's on the unattacked design and a fresh one elsewhere (the
/// oracle compares evidence, whatever it is).
struct Evidence {
  sched::Schedule schedule;
  regbind::LifetimeTable table;
  regbind::Binding binding;
  std::vector<tm::Matching> cover;
};

Evidence evidenceFor(const Marked& m, const Suspect& s) {
  Evidence ev{sched::Schedule(s.g.nodeCount()), {}, {}, {}};
  for (const auto& [from, to] : s.map) {
    if (m.schedule.isSet(from)) {
      ev.schedule.set(to, m.schedule.at(from));
    }
  }
  if (s.attack == "published") {
    ev.table = regbind::computeLifetimes(s.g, m.schedule);
    ev.binding = m.binding;
  } else {
    ev.table = regbind::computeLifetimes(s.g, sched::listSchedule(s.g));
    ev.binding = regbind::bindRegisters(ev.table);
  }
  for (const tm::Matching& match : m.cover) {
    tm::Matching mapped = match;
    for (tm::MatchPair& p : mapped.pairs) {
      p.node = s.map.at(p.node);
    }
    ev.cover.push_back(std::move(mapped));
  }
  return ev;
}

// --- the unscreened oracles -----------------------------------------------

std::string render(const SchedDetectResult& r) {
  return "found=" + std::to_string(r.found) +
         " satisfied=" + std::to_string(r.satisfied) +
         " total=" + std::to_string(r.total) +
         " shape_matches=" + std::to_string(r.shape_matches) +
         " root=" + std::to_string(r.root.isValid() ? r.root.value() : -1LL);
}

std::string render(const RegDetectResult& r) {
  return "found=" + std::to_string(r.found) +
         " shared=" + std::to_string(r.shared) +
         " total=" + std::to_string(r.total) +
         " shape_matches=" + std::to_string(r.shape_matches) +
         " root=" + std::to_string(r.root.isValid() ? r.root.value() : -1LL);
}

std::string render(const TmDetectResult& r) {
  return "found=" + std::to_string(r.found) +
         " present=" + std::to_string(r.present) +
         " total=" + std::to_string(r.total) +
         " shape_matches=" + std::to_string(r.shape_matches) +
         " root=" + std::to_string(r.root.isValid() ? r.root.value() : -1LL);
}

/// Serial derivation at every candidate root (of the anchor's kind when
/// there is one), no screen.
std::vector<ShapeHit> naiveHits(const LocalityDeriver& deriver,
                                const crypto::AuthorSignature& sig,
                                const std::string& context,
                                const LocalityParams& params,
                                const Cdfg& shape,
                                std::optional<cdfg::OpKind> root_kind) {
  std::vector<ShapeHit> hits;
  for (const NodeId root : deriver.candidateRoots()) {
    if (root_kind.has_value() && deriver.csr().kind(root) != *root_kind) {
      continue;
    }
    crypto::KeyedBitstream bits(sig, context + "/carve");
    const std::optional<Locality> loc = deriver.derive(root, params, bits);
    if (loc && shapeEquals(loc->shape, shape)) {
      hits.push_back({root, loc->nodes});
    }
  }
  return hits;
}

std::string oracle(const LocalityDeriver& deriver, const Evidence& ev,
                   const crypto::AuthorSignature& sig,
                   const WatermarkCertificate& cert) {
  return render(SchedDetector(sig, deriver, cert, deriver.candidateRoots())
                    .check(ev.schedule));
}

std::string oracle(const LocalityDeriver& deriver, const Evidence& ev,
                   const crypto::AuthorSignature& sig,
                   const RegCertificate& cert) {
  RegDetectResult best;
  best.total = cert.pairs.size();
  best.root = NodeId::invalid();
  for (const ShapeHit& hit :
       naiveHits(deriver, sig, cert.context, cert.locality_params, cert.shape,
                 cert.shape.node(NodeId(cert.root_rank)).kind)) {
    std::size_t shared = 0;
    for (const RankConstraint& c : cert.pairs) {
      const NodeId a = hit.nodes[c.before_rank];
      const NodeId b = hit.nodes[c.after_rank];
      if (ev.table.produces(a) && ev.table.produces(b) &&
          ev.binding.of(ev.table, a) == ev.binding.of(ev.table, b)) {
        ++shared;
      }
    }
    ++best.shape_matches;
    if (shared > best.shared || !best.root.isValid()) {
      best.shared = shared;
      best.root = hit.root;
    }
  }
  best.found =
      best.root.isValid() && best.shared == best.total && best.total > 0;
  return render(best);
}

std::string oracle(const LocalityDeriver& deriver, const Evidence& ev,
                   const crypto::AuthorSignature& sig,
                   const TmCertificate& cert) {
  std::vector<ShapeHit> hits;
  if (cert.whole_design) {
    const std::optional<Locality> loc =
        deriver.wholeDesign(cert.locality_params.min_size);
    if (loc && shapeEquals(loc->shape, cert.shape)) {
      hits.push_back({NodeId::invalid(), loc->nodes});
    }
  } else {
    hits = naiveHits(deriver, sig, cert.context, cert.locality_params,
                     cert.shape, std::nullopt);
  }
  std::vector<std::string> keys;
  for (const tm::Matching& m : ev.cover) {
    keys.push_back(m.key());
  }
  TmDetectResult best;
  best.total = cert.matchings.size();
  best.root = NodeId::invalid();
  for (const ShapeHit& hit : hits) {
    std::size_t present = 0;
    for (const EnforcedMatching& em : cert.matchings) {
      tm::Matching expect;
      expect.template_id = em.template_id;
      for (const auto& [rank, op] : em.pairs) {
        expect.pairs.push_back(tm::MatchPair{hit.nodes[rank], op});
      }
      std::sort(expect.pairs.begin(), expect.pairs.end(),
                [](const tm::MatchPair& a, const tm::MatchPair& b) {
                  return a.op_index < b.op_index;
                });
      present += std::count(keys.begin(), keys.end(), expect.key()) > 0;
    }
    ++best.shape_matches;
    if (present >= best.present) {
      best.present = present;
      best.root = hit.root;
    }
  }
  best.found =
      !hits.empty() && best.present == best.total && best.total > 0;
  return render(best);
}

// --- screened detection ---------------------------------------------------

/// The detection driver over the shared deriver and index a detect call
/// builds.
template <typename Cert>
std::vector<ShapeHit> driverHits(const LocalityDeriver& deriver,
                                 const DesignIndex& index,
                                 const crypto::AuthorSignature& sig,
                                 const Cert& cert) {
  return Identifier({replayQuery(sig, cert)}).run(deriver, &index).hits.front();
}

/// Both screened entry points: the driver over the shared deriver and
/// index, folded as the CLI folds it, and the per-certificate convenience
/// overload.  They must agree.
std::string screened(const Suspect& s, const LocalityDeriver& deriver,
                     const DesignIndex& index, const Evidence& ev,
                     const crypto::AuthorSignature& sig,
                     const WatermarkCertificate& cert) {
  const SchedulingWatermarker marker(sig);
  const std::string shared =
      render(SchedDetector(cert, driverHits(deriver, index, sig, cert))
                 .check(ev.schedule));
  EXPECT_EQ(render(marker.detect(s.g, ev.schedule, cert)), shared);
  EXPECT_EQ(render(SchedDetector(marker, s.g, cert).check(ev.schedule)),
            shared);
  return shared;
}

std::string screened(const Suspect& s, const LocalityDeriver& deriver,
                     const DesignIndex& index, const Evidence& ev,
                     const crypto::AuthorSignature& sig,
                     const RegCertificate& cert) {
  const RegisterWatermarker marker(sig);
  const std::string shared = render(RegisterWatermarker::detectFromHits(
      cert, driverHits(deriver, index, sig, cert), ev.table, ev.binding));
  EXPECT_EQ(render(marker.detect(s.g, ev.table, ev.binding, cert)), shared);
  return shared;
}

std::string screened(const Suspect& s, const LocalityDeriver& deriver,
                     const DesignIndex& index, const Evidence& ev,
                     const crypto::AuthorSignature& sig,
                     const TmCertificate& cert) {
  const TemplateWatermarker marker(sig, library());
  const std::string shared = render(TemplateWatermarker::detectFromHits(
      cert, driverHits(deriver, index, sig, cert), ev.cover));
  EXPECT_EQ(render(marker.detect(s.g, ev.cover, cert)), shared);
  return shared;
}

/// Replays every root the screen prunes (of the anchor's kind, where the
/// certificate has one); returns how many there were.
template <typename Cert>
std::size_t expectPrunedRootsReplayEmpty(const LocalityDeriver& deriver,
                                         const DesignIndex& index,
                                         const crypto::AuthorSignature& sig,
                                         const Cert& cert,
                                         const std::string& what) {
  const CertScreen screen = certScreen(replayQuery(sig, cert));
  if (screen.whole_design) {
    if (screenWholeDesign(index, screen)) {
      return 0;
    }
    const std::optional<Locality> loc =
        deriver.wholeDesign(cert.locality_params.min_size);
    EXPECT_FALSE(loc && shapeEquals(loc->shape, cert.shape))
        << what << ": pruned whole design matches — the screen is unsound";
    return 1;
  }
  const std::vector<NodeId> kept = screenRoots(index, screen);
  std::vector<NodeId> pruned;
  for (const NodeId root : deriver.candidateRoots()) {
    if ((!screen.root_kind || deriver.csr().kind(root) == *screen.root_kind) &&
        !std::binary_search(kept.begin(), kept.end(), root)) {
      pruned.push_back(root);
    }
  }
  EXPECT_TRUE(replayShapeMatches(deriver, {replayQuery(sig, cert, pruned)})
                  .hits.front()
                  .empty())
      << what << ": a pruned root has a shape match — the screen is unsound";
  return pruned.size();
}

/// One detector key and the design whose certificates it checks.
struct Request {
  std::string label;
  crypto::AuthorSignature sig;
  const Marked* owner;
};

/// Screens and replays every certificate of every request against every
/// attacked form of `m`, comparing with the unscreened oracle at 1, 2 and
/// 8 lanes.  Returns the number of pruned roots replayed.
std::size_t checkDesign(const Marked& m, const std::vector<Request>& requests,
                        bool attacks) {
  std::size_t pruned = 0;
  std::vector<Suspect> suspects = suspectsOf(m.published, /*seed=*/7);
  if (!attacks) {
    suspects.resize(1);
  }
  for (const Suspect& s : suspects) {
    const Evidence ev = evidenceFor(m, s);
    const LocalityDeriver deriver(s.g);
    std::uint32_t radius = 0;
    for (const Request& rq : requests) {
      for (const auto& c : rq.owner->sched_certs) {
        radius = std::max(radius, c.locality_params.max_distance);
      }
      if (rq.owner->reg_cert) {
        radius = std::max(radius,
                          rq.owner->reg_cert->locality_params.max_distance);
      }
      for (const auto& c : rq.owner->tm_certs) {
        radius = std::max(radius, c.locality_params.max_distance);
      }
    }

    // Oracle verdicts and the pruned-root replay, serially.
    rt::setThreadCount(1);
    const DesignIndex index = buildDesignIndex(deriver, radius);
    std::vector<std::string> want;
    const auto forEachCert = [&](auto&& visit) {
      for (const Request& rq : requests) {
        const std::string what = m.name + "/" + s.attack + " x " + rq.label;
        for (const auto& c : rq.owner->sched_certs) {
          visit(what + " sched " + c.context, rq.sig, c);
        }
        if (rq.owner->reg_cert) {
          visit(what + " reg", rq.sig, *rq.owner->reg_cert);
        }
        for (const auto& c : rq.owner->tm_certs) {
          visit(what + (c.whole_design ? " tm-whole" : " tm-rooted"), rq.sig,
                c);
        }
      }
    };
    forEachCert([&](const std::string& what,
                    const crypto::AuthorSignature& sig, const auto& cert) {
      want.push_back(what + ": " + oracle(deriver, ev, sig, cert));
      pruned += expectPrunedRootsReplayEmpty(deriver, index, sig, cert, what);
    });

    for (const std::size_t threads : {1u, 2u, 8u}) {
      rt::setThreadCount(threads);
      const DesignIndex lanes_index = buildDesignIndex(deriver, radius);
      EXPECT_EQ(lanes_index, index) << "threads=" << threads;
      std::vector<std::string> got;
      forEachCert([&](const std::string& what,
                      const crypto::AuthorSignature& sig, const auto& cert) {
        got.push_back(what + ": " +
                      screened(s, deriver, lanes_index, ev, sig, cert));
      });
      EXPECT_EQ(got, want) << "threads=" << threads;
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
  return pruned;
}

/// Own certificates, own certificates under another key, and the next
/// design's certificates under its own key.
std::vector<Request> requestsFor(const std::vector<Marked>& designs,
                                 std::size_t i) {
  const Marked& m = designs[i];
  const Marked& next = designs[(i + 1) % designs.size()];
  return {{"own", m.sig, &m},
          {"own-wrong-key", {"mallory", m.name}, &m},
          {"foreign " + next.name, next.sig, &next}};
}

std::size_t certCount(const std::vector<Marked>& designs) {
  std::size_t n = 0;
  for (const Marked& m : designs) {
    n += m.sched_certs.size() + (m.reg_cert ? 1 : 0) + m.tm_certs.size();
  }
  return n;
}

TEST(DetectScreen, RandomDesignsMatchFullReplayUnderAttacks) {
  std::vector<Marked> designs;
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    cdfg::RandomDfgOptions o;
    o.operations = 90;
    o.inputs = 6;
    o.width = 8;
    designs.push_back(markDesign("random" + std::to_string(seed),
                                 cdfg::randomDfg(o, seed)));
  }
  ASSERT_GE(certCount(designs), 9u);
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    pruned += checkDesign(designs[i], requestsFor(designs, i),
                          /*attacks=*/true);
  }
  EXPECT_GT(pruned, 0u) << "the screen pruned nothing; the oracle is vacuous";
}

TEST(DetectScreen, HyperDesignsMatchFullReplayUnderAttacks) {
  std::vector<Marked> designs;
  designs.push_back(markDesign("wave", workloads::waveFilter(8)));
  designs.push_back(markDesign("lattice", workloads::lattice(6)));
  designs.push_back(markDesign("dct8", workloads::dct8()));
  std::size_t whole = 0;
  for (const Marked& m : designs) {
    for (const TmCertificate& c : m.tm_certs) {
      whole += c.whole_design ? 1 : 0;
    }
  }
  ASSERT_GT(whole, 0u) << "no whole-design tm certificate was embedded";
  for (std::size_t i = 0; i < designs.size(); ++i) {
    checkDesign(designs[i], requestsFor(designs, i), /*attacks=*/true);
  }
}

TEST(DetectScreen, MediaBenchMixesMatchFullReplay) {
  // Every Table I application's operation mix, scaled down so the
  // unscreened oracle stays affordable under ThreadSanitizer.
  std::vector<Marked> designs;
  for (workloads::MediaBenchProfile p : workloads::mediaBenchProfiles()) {
    p.operations = std::min<std::size_t>(p.operations, 120);
    p.width = std::min<std::size_t>(p.width, 10);
    designs.push_back(markDesign(p.name, workloads::buildMediaBench(p)));
  }
  ASSERT_GE(certCount(designs), designs.size());
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    pruned += checkDesign(designs[i], requestsFor(designs, i),
                          /*attacks=*/false);
  }
  EXPECT_GT(pruned, 0u);
}

TEST(DetectScreen, IndexBelowCertificateRadiusThrows) {
  const Marked m = markDesign("wave", workloads::waveFilter(8));
  ASSERT_FALSE(m.sched_certs.empty());
  const WatermarkCertificate& cert = m.sched_certs.front();
  ASSERT_GT(cert.locality_params.max_distance, 1u);
  const LocalityDeriver deriver(m.published);
  const DesignIndex narrow =
      buildDesignIndex(deriver, cert.locality_params.max_distance - 1);
  const ShapeQuery query = replayQuery(m.sig, cert);
  EXPECT_THROW((void)screenRoots(narrow, certScreen(query)), WatermarkError);
  EXPECT_THROW((void)Identifier({query}).run(deriver, &narrow),
               WatermarkError);
}

}  // namespace
}  // namespace locwm::wm
