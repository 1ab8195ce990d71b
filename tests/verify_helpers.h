// Shared test-side entry point into the verifier: tests go through the
// unified VerifyRequest API (PR 3) via this helper, so the request-based
// code path gets the bulk of the coverage.
#ifndef WAVE_TESTS_VERIFY_HELPERS_H_
#define WAVE_TESTS_VERIFY_HELPERS_H_

#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "common/check.h"
#include "verifier/verifier.h"

namespace wave {

/// `bundle`'s properties as a catalog for name/index/batch selection.
inline std::vector<Property> CatalogOf(const AppBundle& bundle) {
  std::vector<Property> catalog;
  for (const ParsedProperty& p : bundle.properties) {
    catalog.push_back(p.property);
  }
  return catalog;
}

/// Runs `property` through Verifier::Run and unwraps the response, dying
/// with the status message on a malformed request (tests that expect a
/// bad request use Run directly and inspect the Status).
inline VerifyResult RunVerify(Verifier& verifier, const Property& property,
                              VerifyOptions options = {}, int jobs = 1) {
  VerifyRequest request;
  request.property = &property;
  request.options = std::move(options);
  request.jobs = jobs;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  WAVE_CHECK_MSG(response.ok(), "RunVerify(" << property.name << "): "
                                             << response.status().message());
  return std::move(static_cast<VerifyResult&>(*response));
}

}  // namespace wave

#endif  // WAVE_TESTS_VERIFY_HELPERS_H_
