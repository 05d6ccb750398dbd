#ifndef OLAP_TESTS_SUPPORT_FINANCIAL_CUBE_H_
#define OLAP_TESTS_SUPPORT_FINANCIAL_CUBE_H_

#include <string>
#include <utility>

#include "cube/cube.h"

namespace olap {

// The cube of examples/financial_rules.cpp: Product (AV {TV, Radio},
// Audio {Amp}) varies over Time (Jan..Apr); Market is East {NY} and
// West {CA}; Measures holds Margin, which consolidates Sales (+) and
// COGS (-), and the leaf Margin%, which no cell stores (a rule defines
// it). Every product sells 100 in each market and month, at the COGS
// given for it.
inline Cube BuildFinancialCube(double tv_cogs = 60, double radio_cogs = 60,
                               double amp_cogs = 60) {
  Schema schema;
  Dimension product("Product");
  const MemberId av = *product.AddChildOfRoot("AV");
  const MemberId audio = *product.AddChildOfRoot("Audio");
  (void)*product.AddMember("TV", av);
  (void)*product.AddMember("Radio", av);
  (void)*product.AddMember("Amp", audio);
  Dimension market("Market");
  (void)*market.AddMember("NY", *market.AddChildOfRoot("East"));
  (void)*market.AddMember("CA", *market.AddChildOfRoot("West"));
  Dimension time("Time", DimensionKind::kParameter);
  for (const char* m : {"Jan", "Feb", "Mar", "Apr"}) {
    (void)*time.AddChildOfRoot(m);
  }
  Dimension measures("Measures", DimensionKind::kMeasure);
  const MemberId margin = *measures.AddChildOfRoot("Margin");
  (void)*measures.AddMember("Sales", margin, /*weight=*/1.0);
  (void)*measures.AddMember("COGS", margin, /*weight=*/-1.0);
  (void)*measures.AddChildOfRoot("Margin%");
  const int product_dim = schema.AddDimension(std::move(product));
  schema.AddDimension(std::move(market));
  const int time_dim = schema.AddDimension(std::move(time));
  schema.AddDimension(std::move(measures));
  (void)schema.BindVarying(product_dim, time_dim, /*ordered=*/true);

  Cube cube(std::move(schema));
  const std::pair<const char*, double> cogs[] = {
      {"TV", tv_cogs}, {"Radio", radio_cogs}, {"Amp", amp_cogs}};
  for (const auto& [prod, c] : cogs) {
    for (const char* mkt : {"NY", "CA"}) {
      for (const char* month : {"Jan", "Feb", "Mar", "Apr"}) {
        (void)cube.SetByName({prod, mkt, month, "Sales"}, CellValue(100));
        (void)cube.SetByName({prod, mkt, month, "COGS"}, CellValue(c));
      }
    }
  }
  return cube;
}

}  // namespace olap

#endif  // OLAP_TESTS_SUPPORT_FINANCIAL_CUBE_H_
