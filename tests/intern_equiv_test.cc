// The acceptance criterion of the hash-consed IR: translation outputs are
// byte-identical with interning on vs off. Interning is meant to change
// identity and key representation only — never normalization, rule matching,
// coverage merging, or printing. This runs the full pipeline (specs built
// from scratch, Translator / Mediator / TranslationService) twice, once per
// mode, and compares every rendered output.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "qmap/contexts/amazon.h"
#include "qmap/contexts/clbooks.h"
#include "qmap/contexts/diglib.h"
#include "qmap/contexts/faculty.h"
#include "qmap/contexts/geo.h"
#include "qmap/contexts/shop.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/core/translator.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/parser.h"
#include "qmap/expr/printer.h"
#include "qmap/mediator/mediator.h"
#include "qmap/service/translation_service.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::InternToggle;

std::string RenderTranslation(const Translation& t) {
  return ToParseableText(t.mapped) + " / " + ToParseableText(t.filter);
}

std::string RenderMediatorTranslation(const MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + RenderTranslation(translation) + "\n";
  }
  return out + "F: " + ToParseableText(t.filter) + "\n";
}

/// Translates a fixed battery of queries against every named context plus
/// the faculty mediator and a synthetic TranslationService federation, and
/// renders everything into one transcript string. Everything — specs,
/// queries, intermediate IR — is constructed inside the call, so the whole
/// pipeline runs under whichever intern mode is active.
std::string RunEverything() {
  std::string out;
  auto run = [&out](const char* label, MappingSpec spec,
                    const std::vector<std::string>& queries) {
    Translator translator(std::move(spec));
    for (const std::string& text : queries) {
      Result<Translation> t = translator.TranslateText(text);
      out += std::string(label) + " | " + text + " -> ";
      out += t.ok() ? RenderTranslation(*t) : t.status().ToString();
      out += "\n";
    }
  };

  const std::vector<std::string> book_queries = {
      "[fn = \"Tom\"] and [ln = \"Clancy\"]",
      "([ln = \"Clancy\"] or [ln = \"Klancy\"]) and [fn = \"Tom\"]",
      "[ln = \"Smith\"] and [ti contains \"java(near)jdk\"] and "
      "[pyear = 1997] and [pmonth = 5]",
      "[ti = \"red october\"] or ([pyear = 1998] and [pmonth = 1])",
  };
  run("amazon", AmazonSpec(), book_queries);
  run("clbooks", ClbooksSpec(), book_queries);

  run("shop", ShopSpec(),
      {"[price < 19.99] and [length >= 10]",
       "([price < 10] or [price > 100]) and [length <= 3]",
       "[name = \"red widget\"] and [weight = 2]"});

  run("geo", GeoSpec(),
      {"[x_min = 10] and [x_max = 20] and [y_min = 5] and [y_max = 15]"});

  const std::vector<std::string> diglib_queries = {
      "[abstract contains \"data(near/8)mining(and)web\"] and [ti = \"x\"]",
      "[abstract contains \"information(and)integration\"]",
  };
  run("prox10", Prox10Spec(), diglib_queries);
  run("boolean", BooleanSpec(), diglib_queries);
  run("anyword", AnywordSpec(), diglib_queries);

  // The mediator fan-out over both faculty sources.
  Mediator mediator = MakeFacultyMediator();
  Result<Query> fq = ParseQuery(
      "[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
      "[fac.bib contains \"data(near)mining\"] and [fac.dept = \"cs\"]");
  if (fq.ok()) {
    Result<MediatorTranslation> mt = mediator.Translate(*fq);
    out += "faculty:\n";
    out += mt.ok() ? RenderMediatorTranslation(*mt) : mt.status().ToString();
  }

  // The service layer over a randomized synthetic federation — exercises the
  // fingerprint-keyed translation cache (repeat queries hit it) and batch
  // dedup, in both modes.
  TranslationService service;
  for (int i = 0; i < 3; ++i) {
    SyntheticOptions options;
    options.num_attrs = 8;
    options.dependent_pairs =
        i == 0 ? std::vector<std::pair<int, int>>{}
               : std::vector<std::pair<int, int>>{{0, 1}, {2, 3}};
    Result<MappingSpec> spec = MakeSyntheticSpec(options);
    if (spec.ok()) service.AddSource("S" + std::to_string(i), *spec);
  }
  std::mt19937 rng(20260806);
  RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 3;
  std::vector<Query> random_queries;
  for (int i = 0; i < 16; ++i) random_queries.push_back(RandomQuery(rng, options));
  // Repeat the first few so the cache answers some of them.
  for (int i = 0; i < 4; ++i) random_queries.push_back(random_queries[i]);
  for (const Query& q : random_queries) {
    Result<MediatorTranslation> t = service.Translate(q);
    out += "service | " + ToParseableText(q) + " ->\n";
    out += t.ok() ? RenderMediatorTranslation(*t) : t.status().ToString();
  }
  Result<std::vector<MediatorTranslation>> batch =
      service.TranslateBatch(random_queries);
  if (batch.ok()) {
    out += "batch:\n";
    for (const MediatorTranslation& t : *batch) {
      out += RenderMediatorTranslation(t);
    }
  }
  return out;
}

TEST(InternEquivalence, TranslationOutputsAreByteIdenticalOnVsOff) {
  std::string with_intern;
  std::string without_intern;
  {
    InternToggle on(true);
    with_intern = RunEverything();
  }
  {
    InternToggle off(false);
    without_intern = RunEverything();
  }
  // One transcript, every context and layer: any divergence pinpoints the
  // first query whose rendering changed.
  EXPECT_EQ(with_intern, without_intern);
  EXPECT_FALSE(with_intern.empty());
}

}  // namespace
}  // namespace qmap
