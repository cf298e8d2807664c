// Oracles: every check here reads the library's output and the
// generator's designed optimum, never the router's own bookkeeping.
#include <cctype>
#include <stdexcept>

#include "bench.hpp"
#include "serve/request.hpp"
#include "util/json.hpp"

namespace e2e {

namespace {

using qubikos::json::kind;
using qubikos::json::value;

bool parse_object(const std::string& text, value& out, std::string& why) {
    try {
        out = qubikos::json::parse(text);
    } catch (const std::exception& e) {
        why = std::string("response is not JSON: ") + e.what();
        return false;
    }
    if (out.type() != kind::object) {
        why = "response is not a JSON object";
        return false;
    }
    return true;
}

bool flag(const value& doc, const char* key) {
    return doc.contains(key) && doc.at(key).type() == kind::boolean && doc.at(key).as_bool();
}

/// Integer field, or `fallback` when absent or not a number.
long long number(const value& doc, const char* key, long long fallback) {
    if (!doc.contains(key) || doc.at(key).type() != kind::number) return fallback;
    return static_cast<long long>(doc.at(key).as_number());
}

/// Reads the qubit indices "q[i]" of one QASM instruction line.
std::vector<int> qubit_operands(const std::string& line) {
    std::vector<int> qubits;
    for (std::size_t at = line.find("q["); at != std::string::npos; at = line.find("q[", at)) {
        at += 2;
        int index = 0;
        bool digits = false;
        while (at < line.size() && std::isdigit(static_cast<unsigned char>(line[at])) != 0) {
            index = index * 10 + (line[at] - '0');
            digits = true;
            ++at;
        }
        qubits.push_back(digits ? index : -1);
    }
    return qubits;
}

}  // namespace

std::string check_route(const std::string& response, const qubikos::graph& coupling,
                        int designed, long long* swaps_out) {
    value doc;
    std::string why;
    if (!parse_object(response, doc, why)) return why;
    if (!flag(doc, "ok")) return "route response not ok";
    if (!flag(doc, "legal")) return "route response not legal";
    const long long swaps = number(doc, "swaps", -1);
    if (swaps_out != nullptr) *swaps_out = swaps;
    if (swaps < designed) {
        return "route reports " + std::to_string(swaps) + " swaps, below the designed optimum " +
               std::to_string(designed);
    }
    if (!doc.contains("qasm") || doc.at("qasm").type() != kind::string) {
        return "route response carries no QASM";
    }
    const std::string& qasm = doc.at("qasm").as_string();
    long long qasm_swaps = 0;
    std::size_t begin = 0;
    while (begin < qasm.size()) {
        std::size_t end = qasm.find('\n', begin);
        if (end == std::string::npos) end = qasm.size();
        const std::string line = qasm.substr(begin, end - begin);
        begin = end + 1;
        const std::vector<int> qubits = qubit_operands(line);
        if (qubits.size() != 2) continue;
        if (qubits[0] < 0 || qubits[1] < 0 || qubits[0] >= coupling.num_vertices() ||
            qubits[1] >= coupling.num_vertices() || !coupling.has_edge(qubits[0], qubits[1])) {
            return "two-qubit gate on an uncoupled pair: " + line;
        }
        if (line.rfind("swap ", 0) == 0) ++qasm_swaps;
    }
    if (qasm_swaps != swaps) {
        return "emitted QASM has " + std::to_string(qasm_swaps) + " swaps, response says " +
               std::to_string(swaps);
    }
    return "";
}

std::string check_certify(const std::string& response, int designed) {
    value doc;
    std::string why;
    if (!parse_object(response, doc, why)) return why;
    if (!flag(doc, "ok")) return "certify response not ok";
    const long long declared = number(doc, "declared_swaps", -1);
    const long long solver = number(doc, "solver_swaps", -2);
    if (declared != designed) {
        return "certify declared " + std::to_string(declared) + " swaps, designed " +
               std::to_string(designed);
    }
    if (solver != declared) {
        return "certify solver_swaps " + std::to_string(solver) + " != declared_swaps " +
               std::to_string(declared);
    }
    if (!flag(doc, "confirmed")) return "certify not confirmed";
    return "";
}

std::string expected_certify_line(const std::string& id, const std::string& device,
                                  int designed) {
    qubikos::serve::certify_response resp;
    resp.id = id;
    resp.device = device;
    resp.declared_swaps = designed;
    resp.solver_swaps = designed;
    resp.confirmed = true;
    return resp.to_json().dump();
}

std::string check_campaign_unit(const qubikos::campaign::stored_run& run) {
    if (run.failed()) return "unit " + run.unit_id + " failed: " + run.error;
    if (!run.record.valid) return "unit " + run.unit_id + " is not valid";
    if (static_cast<long long>(run.record.measured_swaps) < run.record.designed_swaps) {
        return "unit " + run.unit_id + " measured " + std::to_string(run.record.measured_swaps) +
               " swaps, below the designed " + std::to_string(run.record.designed_swaps);
    }
    return "";
}

std::string check_identical(const std::string& got, const std::string& want) {
    if (got == want) return "";
    std::size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
    const auto excerpt = [&](const std::string& s) {
        return at < s.size() ? s.substr(at, 40) : std::string("<end>");
    };
    return "bytes differ at offset " + std::to_string(at) + ": got \"" + excerpt(got) +
           "\", want \"" + excerpt(want) + "\"";
}

}  // namespace e2e
