#include "qmap/expr/attr.h"

#include <gtest/gtest.h>

#include <climits>

#include "qmap/common/fnv.h"

namespace qmap {
namespace {

TEST(Attr, Factories) {
  EXPECT_EQ(Attr::Simple("ln").ToString(), "ln");
  EXPECT_EQ(Attr::Of("fac", "ln").ToString(), "fac.ln");
  EXPECT_EQ(Attr::OfInstance("fac", 2, "ln").ToString(), "fac[2].ln");
  EXPECT_EQ(Attr::Of("fac", "aubib.bib").ToString(), "fac.aubib.bib");
}

TEST(Attr, ParseBare) {
  Result<Attr> a = Attr::Parse("ln");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->view.empty());
  EXPECT_EQ(a->name, "ln");
  EXPECT_EQ(a->instance, 0);
}

TEST(Attr, ParseQualified) {
  Result<Attr> a = Attr::Parse("fac.ln");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->view, "fac");
  EXPECT_EQ(a->name, "ln");
}

TEST(Attr, ParseIndexed) {
  Result<Attr> a = Attr::Parse("fac[2].ln");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->view, "fac");
  EXPECT_EQ(a->instance, 2);
  EXPECT_EQ(a->name, "ln");
}

TEST(Attr, ParseExpandedPath) {
  Result<Attr> a = Attr::Parse("fac.aubib.bib");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->view, "fac");
  EXPECT_EQ(a->name, "aubib.bib");
}

TEST(Attr, ParseErrors) {
  EXPECT_FALSE(Attr::Parse("").ok());
  EXPECT_FALSE(Attr::Parse("fac[2.ln").ok());
  EXPECT_FALSE(Attr::Parse(".ln").ok());
}

TEST(Attr, EqualityAndOrdering) {
  EXPECT_EQ(Attr::Of("fac", "ln"), Attr::Of("fac", "ln"));
  EXPECT_NE(Attr::Of("fac", "ln"), Attr::OfInstance("fac", 1, "ln"));
  EXPECT_LT(Attr::Of("fac", "fn"), Attr::Of("fac", "ln"));
}

// The instance's digits are part of the fingerprinted bytes.
TEST(Attr, CanonicalHashIsFnvOfThePrintedForm) {
  for (int instance : {0, 1, 9, 10, INT_MAX}) {
    const Attr attr = Attr::OfInstance("fac", instance, "ln");
    EXPECT_EQ(attr.CanonicalHash(), Fnv64Hash(attr.ToString())) << instance;
  }
  EXPECT_EQ(Attr::Simple("ti-word").CanonicalHash(), Fnv64Hash("ti-word"));
  EXPECT_EQ(Attr::Of("fac", "aubib.bib").CanonicalHash(),
            Fnv64Hash("fac.aubib.bib"));
}

}  // namespace
}  // namespace qmap
